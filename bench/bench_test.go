package main

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// toyTuning shrinks a tuning workload to one D1 session of budget 25
// (the paper's 20 init points plus 5 BO steps), set up once.
func toyTuning(spec tuningSpec) tuningSpec {
	spec.families = spec.families[:1]
	spec.dataset = 0
	spec.budget = 25
	spec.rounds = 1
	spec.setups = 1
	spec.warmupBudget = 25
	if spec.warmBudget > 0 {
		spec.warmBudget = 25
	}
	return spec
}

// TestSmoke runs every workload at toy scale, plain and traced, and
// checks that the run passes its correctness checks and emits exactly
// the metrics BENCHMARK.json names, with their units.
func TestSmoke(t *testing.T) {
	var defs definitions
	if err := readJSON(filepath.Join("..", definitionsPath), &defs); err != nil {
		t.Fatal(err)
	}
	toys := map[string]func(runConfig) *report{
		"spark-cold":      func(c runConfig) *report { return runTuning(toyTuning(sparkCold()), c) },
		"spark-warm-long": func(c runConfig) *report { return runTuning(toyTuning(sparkWarmLong()), c) },
		"clustersim-cold": func(c runConfig) *report { return runTuning(toyTuning(clustersimCold()), c) },
		"service-wire": func(c runConfig) *report {
			spec := serviceWire()
			spec.budget, spec.quality, spec.warmupBudget, spec.setups = 200, 1, 50, 1
			return runService(spec, c)
		},
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			run, ok := toys[name]
			if !ok {
				t.Fatalf("no toy version of workload %s", name)
			}
			rep := run(runConfig{seed: 1, seconds: time.Second, trace: trace, workdir: t.TempDir()})
			for _, n := range rep.notes {
				t.Errorf("%s trace=%v: %s", name, trace, n)
			}
			if rep.Failed > 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", name, trace, rep.Failed, rep.Attempted)
			}
			want := defs.EndToEnd
			if trace {
				want = defs.PerLayer
			}
			got := make(map[string]metric, len(rep.Metrics))
			for k, v := range rep.Metrics {
				got[k] = v
			}
			for _, d := range want {
				m, ok := got[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", name, trace, d.Name, m.Unit, d.Unit)
				}
				delete(got, d.Name)
			}
			var extra []string
			for k := range got {
				extra = append(extra, k)
			}
			sort.Strings(extra)
			if len(extra) > 0 {
				t.Errorf("%s trace=%v: metrics not in BENCHMARK.json: %v", name, trace, extra)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the spread the benchmark is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q2-tc.q2) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "step_ms_p50", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "steps_per_s", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		def          metricDef
		base, change []float64
		want         string
	}{
		{"same", lower, base, base, "unchanged"},
		{"slower", lower, base, scale(base, 1.2), "regressed"},
		{"faster", lower, base, scale(base, 0.9), "improved"},
		{"faster but within noise", lower, base, scale(base, 0.995), "unchanged"},
		{"higher is better", higher, base, scale(base, 1.05), "improved"},
		{"lower throughput", higher, base, scale(base, 0.8), "regressed"},
		{"noisy", lower, base, []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}, "unresolved"},
	} {
		if got := verdict(tc.def, tc.base, tc.change); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}
