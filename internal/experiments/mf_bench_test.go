package experiments

import (
	"os"
	"testing"
)

// TestBenchMultiFidelity is the multi-fidelity acceptance run: the
// ROBOTune-vs-BOHB cost-to-quality comparison at a larger budget than
// the always-on CI gate. Gated behind ROBOTUNE_BENCH_MF=1 because it
// simulates several full tuning campaigns:
//
//	ROBOTUNE_BENCH_MF=1 go test -run TestBenchMultiFidelity -v ./internal/experiments
func TestBenchMultiFidelity(t *testing.T) {
	if os.Getenv("ROBOTUNE_BENCH_MF") == "" {
		t.Skip("set ROBOTUNE_BENCH_MF=1 for the acceptance run")
	}
	cfg := Config{Seed: 1, Budget: 60, Repeats: 1, MeasureReps: 2, Fast: true}
	rows := RunMultiFidelity(cfg, nil)
	t.Logf("\n%s", RenderMultiFidelity(rows))

	passed := 0
	for _, r := range rows {
		if r.Pass {
			passed++
		}
	}
	if passed < 2 {
		t.Errorf("only %d/%d workloads meet the 5%%-quality / 50%%-cost acceptance criterion", passed, len(rows))
	}
}
