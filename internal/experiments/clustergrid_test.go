package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestClusterComparisonDeterministic: the scheduler grid is
// bit-reproducible for a fixed Config — serial and four cells wide
// alike — every session runs its full budget through the backend seam,
// and the rendered table is clean.
func TestClusterComparisonDeterministic(t *testing.T) {
	cfg := Config{Seed: 5, Budget: 10, Repeats: 1, MeasureReps: 2, Fast: true}
	only := func(w string) bool { return w == "CIBuild" }

	a := RunClusterComparison(cfg, only)
	wide := cfg
	wide.Concurrency = 4
	b := RunClusterComparison(wide, only)

	if len(a.Workloads) != 1 || a.Workloads[0] != "CIBuild" {
		t.Fatalf("filtered families = %v", a.Workloads)
	}
	wantSessions := len(TunerNames) * 3 // 4 tuners x D1..D3
	if len(a.Sessions) != wantSessions {
		t.Fatalf("session count %d, want %d", len(a.Sessions), wantSessions)
	}
	if !reflect.DeepEqual(a.Sessions, b.Sessions) {
		t.Fatal("same Config not bit-reproducible across runs and widths")
	}
	if !reflect.DeepEqual(a.Baseline, b.Baseline) {
		t.Fatalf("baselines differ: %v vs %v", a.Baseline, b.Baseline)
	}

	for key, base := range a.Baseline {
		if base <= 0 || math.IsNaN(base) {
			t.Errorf("baseline %s = %v", key, base)
		}
	}
	for _, s := range a.Sessions {
		if len(s.Trace) != cfg.Budget {
			t.Errorf("%s/%s/D%d: trace length %d, want the full budget %d",
				s.Tuner, s.Workload, s.DatasetIdx+1, len(s.Trace), cfg.Budget)
		}
		if !s.Found {
			t.Errorf("%s/%s/D%d: no completing policy found", s.Tuner, s.Workload, s.DatasetIdx+1)
		}
		if s.Quality <= 0 || s.Quality > a.Cap || math.IsNaN(s.Quality) {
			t.Errorf("%s/%s/D%d: quality %v outside (0, %v]",
				s.Tuner, s.Workload, s.DatasetIdx+1, s.Quality, a.Cap)
		}
	}

	out := RenderClusterComparison(a)
	if !strings.Contains(out, "CIBuild/D1") || !strings.Contains(out, "ROBOTune") {
		t.Errorf("render misses grid content:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("render contains NaN:\n%s", out)
	}
}
