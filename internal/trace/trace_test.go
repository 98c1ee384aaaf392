package trace

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/core"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

func newRecorder(t *testing.T) *Recorder {
	t.Helper()
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 1, 480)
	return NewRecorder(ev)
}

func TestRecorderLogsEvaluations(t *testing.T) {
	r := newRecorder(t)
	space := conf.SparkSpace()
	c := space.Default().With(conf.ExecutorMemory, 32768).With(conf.ExecutorCores, 8)
	r.EvaluateSpec(c, backend.EvalSpec{})
	r.EvaluateSpec(c, backend.EvalSpec{Cap: 200})
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Index != 0 || recs[1].Index != 1 {
		t.Error("indices wrong")
	}
	if recs[0].Values[conf.ExecutorMemory] != 32768 {
		t.Error("config values not captured")
	}
	if r.Evals() != 2 || r.SearchCost() <= 0 {
		t.Error("objective forwarding broken")
	}
	if r.WorkloadName() != "TeraSort" || r.DatasetName() != "20GB" {
		t.Error("identity forwarding broken")
	}
}

func TestRecorderThroughROBOTuneAndRoundTrip(t *testing.T) {
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 2, 480)
	rec := NewRecorder(ev)
	opts := core.Options{GenericSamples: 40, PermuteRepeats: 2}
	rt := core.New(nil, opts)
	res := rt.Run(tuners.NewSession(rec, conf.SparkSpace(), tuners.Request{Budget: 20, Seed: 2}))
	if !res.Found {
		t.Fatal("tuning failed")
	}
	// Selection (40) + tuning (20) evaluations all logged.
	if got := len(rec.Records()); got != 60 {
		t.Fatalf("recorded %d evaluations, want 60", got)
	}
	// ROBOTune saw the identity through the wrapper → memoization ran.
	if len(res.SelectedParams) == 0 {
		t.Error("selection did not run through the recorder")
	}

	sess := rec.Finish("ROBOTune", 20, 2, res)
	if sess.Workload != "TeraSort" || sess.Tuner != "ROBOTune" || !sess.Found {
		t.Fatalf("session summary: %+v", sess)
	}

	path := filepath.Join(t.TempDir(), "session.json")
	if err := sess.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var loaded Session
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != 60 || loaded.BestSeconds != sess.BestSeconds {
		t.Fatalf("round trip lost data: %d records, best %v", len(loaded.Records), loaded.BestSeconds)
	}
}

func TestSanitize(t *testing.T) {
	if sanitize(math.NaN()) != -1 || sanitize(math.Inf(1)) != -1 {
		t.Error("non-finite values should map to -1")
	}
	if sanitize(3.5) != 3.5 {
		t.Error("finite values must pass through")
	}
}

func TestRecorderSatisfiesObjective(t *testing.T) {
	var _ tuners.Objective = newRecorder(t)
}
