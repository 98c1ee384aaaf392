package core

// Golden parity pin for the Spark backend: a full robotune trace (and
// a BOHB multi-fidelity trace) captured before the backend-interface
// extraction, compared byte-for-byte against the refactored stack.
// The golden file was generated on the pre-refactor tree; regenerating
// it (ROBOTUNE_UPDATE_GOLDEN=1) is only legitimate when a PR
// deliberately changes tuning behavior, never as part of a refactor
// that claims bit-identical results.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/clustersim"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// paritySnapshot is the JSON image of everything a tuning session
// observed: the full trace, the incumbent, costs, selection, failure
// accounting and the final measured quality. JSON round-trips float64
// bit-exactly, so byte equality of snapshots is bit equality of runs.
type paritySnapshot struct {
	Best           map[string]float64    `json:"best,omitempty"`
	BestSeconds    float64               `json:"best_seconds,omitempty"`
	Found          bool                  `json:"found"`
	Evals          int                   `json:"evals"`
	SearchCost     float64               `json:"search_cost"`
	Trace          []float64             `json:"trace"`
	Completed      []bool                `json:"completed"`
	Proxy          []bool                `json:"proxy,omitempty"`
	SelectedParams []string              `json:"selected_params,omitempty"`
	SelectionEvals int                   `json:"selection_evals,omitempty"`
	SelectionCost  float64               `json:"selection_cost,omitempty"`
	Failures       journal.FailureCounts `json:"failures"`
	Measured       float64               `json:"measured,omitempty"`
	ObjEvals       int                   `json:"obj_evals"`
	ObjCost        float64               `json:"obj_cost"`
}

// measured is what a snapshot reads off a session's evaluator: every
// backend's Harness provides it.
type measured interface {
	Evals() int
	SearchCost() float64
	Measure(c conf.Config, reps int, seed uint64) float64
}

func snapshotOf(res tuners.Result, ev measured, measureSeed uint64) paritySnapshot {
	snap := paritySnapshot{
		Found:          res.Found,
		Evals:          res.Evals,
		SearchCost:     res.SearchCost,
		Trace:          res.Trace,
		Completed:      res.Completed,
		Proxy:          res.Proxy,
		SelectedParams: res.SelectedParams,
		SelectionEvals: res.SelectionEvals,
		SelectionCost:  res.SelectionCost,
		Failures:       res.Failures.Counts(),
		ObjEvals:       ev.Evals(),
		ObjCost:        ev.SearchCost(),
	}
	if res.Found {
		snap.Best = res.Best.ToMap()
		snap.BestSeconds = res.BestSeconds
		snap.Measured = ev.Measure(res.Best, 3, measureSeed)
	}
	return snap
}

func TestSparkBackendParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning runs; skipped in -short mode")
	}
	got := map[string]paritySnapshot{}

	// Scenario 1: the full ROBOTune pipeline (probe → selection → LHS
	// → GP-BO with guard caps) under deterministic fault injection.
	{
		w, err := sparksim.WorkloadByName("KMeans", 1)
		if err != nil {
			t.Fatal(err)
		}
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, 42, 480)
		plan := sparksim.DefaultFaultPlan()
		plan.Seed = 99
		ev.Faults = plan
		r := New(nil, fastOptions())
		res := r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 40, Seed: 42}))
		got["robotune-faults"] = snapshotOf(res, ev, 42*31+7)
	}

	// Scenario 2: BOHB on the fidelity ladder — pins the proxy
	// workload derivation, the per-index noise streams across
	// fidelities and the cap/fidelity plumbing.
	{
		w, err := sparksim.WorkloadByName("PageRank", 0)
		if err != nil {
			t.Fatal(err)
		}
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, 7, 480)
		tn := tuners.BOHB{Ladder: tuners.DefaultLadder()}
		res := tn.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 27, Seed: 7}))
		got["bohb-ladder"] = snapshotOf(res, ev, 7*31+7)
	}

	checkGolden(t, "spark_parity_golden.json", got)
}

// TestClusterSimParityGolden is the same pin for the cluster-scheduler
// backend: a ROBOTune session on the largest BatchETL trace under the
// default fault plan (node loss, stragglers, spurious OOM kills and
// transient aborts all reach the tuner), and BOHB on the fidelity
// ladder over MLTrain, whose proxy rungs replay truncated, thinned
// traces. The same rule holds: regenerating the file is only
// legitimate in a change that deliberately alters tuning behavior or
// the simulator's outcomes.
func TestClusterSimParityGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full tuning runs; skipped in -short mode")
	}
	space := clustersim.Space()
	got := map[string]paritySnapshot{}
	{
		w, err := clustersim.WorkloadByName("BatchETL", 2)
		if err != nil {
			t.Fatal(err)
		}
		ev := clustersim.NewEvaluator(w, 21, 0)
		plan := backend.DefaultFaultPlan()
		plan.Seed = 22
		ev.Faults = plan
		r := New(nil, fastOptions())
		res := r.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 40, Seed: 21}))
		got["robotune-faults"] = snapshotOf(res, ev, 21*31+7)
	}
	{
		w, err := clustersim.WorkloadByName("MLTrain", 1)
		if err != nil {
			t.Fatal(err)
		}
		ev := clustersim.NewEvaluator(w, 23, 0)
		tn := tuners.BOHB{Ladder: tuners.DefaultLadder()}
		res := tn.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 27, Seed: 23}))
		got["bohb-ladder"] = snapshotOf(res, ev, 23*31+7)
	}
	checkGolden(t, "clustersim_parity_golden.json", got)
}

// checkGolden compares the indented JSON of got with testdata/name
// byte for byte, or rewrites the file when ROBOTUNE_UPDATE_GOLDEN is
// set.
func checkGolden(t *testing.T, name string, got any) {
	t.Helper()
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')

	golden := filepath.Join("testdata", name)
	if os.Getenv("ROBOTUNE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden missing (run with ROBOTUNE_UPDATE_GOLDEN=1 on a known-good tree): %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatalf("tuning diverged from the golden trace %s\ngot:\n%s\nwant:\n%s", golden, buf, want)
	}
}
