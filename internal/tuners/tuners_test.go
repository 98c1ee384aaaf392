package tuners

import (
	"math"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/sparksim"
)

// synthObjective adapts a plain function to the Objective interface.
type synthObjective struct {
	mu    sync.Mutex
	fn    func(conf.Config) (seconds float64, completed bool)
	cap   float64
	evals int
	cost  float64
}

func newSynth(fn func(conf.Config) (float64, bool)) *synthObjective {
	return &synthObjective{fn: fn, cap: 480}
}

// EvaluateSpec ignores the spec's cap and fidelity: the synthetic cap
// is fixed so tests exercise tuner logic, not cap plumbing.
func (s *synthObjective) EvaluateSpec(c conf.Config, _ backend.EvalSpec) backend.EvalRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.evals++
	sec, done := s.fn(c)
	consumed := math.Min(sec, s.cap)
	s.cost += consumed
	rec := backend.EvalRecord{Config: c, Raw: sec, Completed: done && sec <= s.cap}
	if rec.Completed {
		rec.Seconds = consumed
	} else {
		rec.Seconds = s.cap
	}
	return rec
}

func (s *synthObjective) SearchCost() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cost
}

func (s *synthObjective) Evals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evals
}

// smallSpace is a 4-parameter space with a smooth objective: optimum
// at cores=16, frac=0.6.
func smallSpace(t *testing.T) *conf.Space {
	t.Helper()
	s, err := conf.NewSpace([]conf.Param{
		{Name: "cores", Kind: conf.Int, Min: 1, Max: 32, Default: 4},
		{Name: "frac", Kind: conf.Float, Min: 0.1, Max: 0.9, Default: 0.5},
		{Name: "flag", Kind: conf.Bool, Default: 0},
		{Name: "noise1", Kind: conf.Float, Min: 0, Max: 1, Default: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smoothObjective(c conf.Config) (float64, bool) {
	cores := float64(c.Int("cores"))
	frac := c.Float("frac")
	sec := 50 + 2*math.Abs(cores-16) + 100*(frac-0.6)*(frac-0.6)
	if !c.Bool("flag") {
		sec += 5
	}
	return sec, true
}

func TestRandomSearchBudgetAndBest(t *testing.T) {
	obj := newSynth(smoothObjective)
	res := RandomSearch{}.Run(NewSession(obj, smallSpace(t), Request{Budget: 50, Seed: 1}))
	if res.Evals != 50 || len(res.Trace) != 50 {
		t.Fatalf("evals=%d trace=%d, want 50", res.Evals, len(res.Trace))
	}
	if !res.Found {
		t.Fatal("RS found nothing")
	}
	if res.BestSeconds > 80 {
		t.Errorf("RS best %v implausibly bad for 50 samples", res.BestSeconds)
	}
	if res.SearchCost <= 0 {
		t.Error("search cost not accounted")
	}
	// Best value must match re-evaluating the best config's formula.
	sec, _ := smoothObjective(res.Best)
	if sec != res.BestSeconds {
		t.Errorf("recorded best %v != config's value %v", res.BestSeconds, sec)
	}
}

func TestRandomSearchDeterministic(t *testing.T) {
	a := RandomSearch{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 30, Seed: 7}))
	b := RandomSearch{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 30, Seed: 7}))
	if a.BestSeconds != b.BestSeconds {
		t.Error("same seed differs")
	}
	c := RandomSearch{}.Run(NewSession(newSynth(smoothObjective), smallSpace(t), Request{Budget: 30, Seed: 8}))
	if a.BestSeconds == c.BestSeconds && a.Best.Equal(c.Best) {
		t.Error("different seeds found identical path (suspicious)")
	}
}

func TestBestConfigSingleRoundMatchesPaperObservation(t *testing.T) {
	// With budget == RoundSize there is no recursion: pure DDS.
	obj := newSynth(smoothObjective)
	res := BestConfig{RoundSize: 100}.Run(NewSession(obj, smallSpace(t), Request{Budget: 100, Seed: 2}))
	if res.Evals != 100 {
		t.Fatalf("evals = %d", res.Evals)
	}
	if !res.Found {
		t.Fatal("BestConfig found nothing")
	}
}

func TestBestConfigRecursionImproves(t *testing.T) {
	// Multiple small rounds let RBS zoom in; final best should beat
	// the first round's best on a smooth objective.
	obj := newSynth(smoothObjective)
	res := BestConfig{RoundSize: 20}.Run(NewSession(obj, smallSpace(t), Request{Budget: 100, Seed: 3}))
	firstRound := math.Inf(1)
	for _, v := range res.Trace[:20] {
		if v < firstRound {
			firstRound = v
		}
	}
	if res.BestSeconds > firstRound {
		t.Errorf("RBS best %v did not improve on round 1 best %v", res.BestSeconds, firstRound)
	}
	if res.BestSeconds > 60 {
		t.Errorf("BestConfig with recursion best = %v, want near optimum ~50", res.BestSeconds)
	}
}

func TestBestConfigDivergesOnNoImprovement(t *testing.T) {
	// A flat objective never improves; the search must still consume
	// the budget without panicking (bounds keep resetting).
	obj := newSynth(func(conf.Config) (float64, bool) { return 100, true })
	res := BestConfig{RoundSize: 10}.Run(NewSession(obj, smallSpace(t), Request{Budget: 40, Seed: 4}))
	if res.Evals != 40 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestGuntherBudgetAndImprovement(t *testing.T) {
	obj := newSynth(smoothObjective)
	res := Gunther{}.Run(NewSession(obj, smallSpace(t), Request{Budget: 100, Seed: 5}))
	if res.Evals != 100 {
		t.Fatalf("evals = %d, want exactly the budget", res.Evals)
	}
	if !res.Found {
		t.Fatal("Gunther found nothing")
	}
	// Init is 2*dim = 8 (small space); evolution should improve over
	// the random-init best.
	initBest := math.Inf(1)
	for _, v := range res.Trace[:8] {
		if v < initBest {
			initBest = v
		}
	}
	if res.BestSeconds > initBest {
		t.Errorf("GA best %v worse than init best %v", res.BestSeconds, initBest)
	}
}

func TestGuntherInitScalesWithDimensionality(t *testing.T) {
	// On the 44-parameter Spark space, initialization takes 2x44=88
	// evals, capped at 2/3 of budget (66 of 100) — the "significant
	// portion" §5.2 blames for Gunther's exploration-heavy profile.
	obj := newSynth(func(c conf.Config) (float64, bool) { return 100, true })
	res := Gunther{}.Run(NewSession(obj, conf.SparkSpace(), Request{Budget: 100, Seed: 6}))
	if res.Evals != 100 {
		t.Fatalf("evals = %d", res.Evals)
	}
}

func TestAllTunersHandleTotalFailure(t *testing.T) {
	obj := newSynth(func(conf.Config) (float64, bool) { return 1000, false })
	for _, tn := range []Tuner{RandomSearch{}, BestConfig{RoundSize: 10}, Gunther{}} {
		res := tn.Run(NewSession(obj, smallSpace(t), Request{Budget: 20, Seed: 7}))
		if res.Found {
			t.Errorf("%s: Found=true on all-failing objective", tn.Name())
		}
		if !math.IsInf(res.BestSeconds, 1) {
			t.Errorf("%s: BestSeconds = %v, want +Inf", tn.Name(), res.BestSeconds)
		}
	}
	// Reset between tuners is the caller's job; here total evals
	// accumulated across all three.
	if obj.Evals() != 60 {
		t.Errorf("total evals = %d", obj.Evals())
	}
}

func TestTunersOnRealSimulator(t *testing.T) {
	// Integration: every baseline tunes TeraSort-20GB on the real
	// simulator and finds something comfortably below the cap.
	space := conf.SparkSpace()
	for _, tn := range []Tuner{RandomSearch{}, BestConfig{}, Gunther{}} {
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.TeraSort(20), 42, 480)
		res := tn.Run(NewSession(ev, space, Request{Budget: 40, Seed: 42}))
		if !res.Found {
			t.Errorf("%s found no completing config in 40 evals", tn.Name())
			continue
		}
		if res.BestSeconds >= 400 {
			t.Errorf("%s best = %v, want < 400", tn.Name(), res.BestSeconds)
		}
		if res.SearchCost <= 0 || res.Evals != 40 {
			t.Errorf("%s accounting: cost=%v evals=%d", tn.Name(), res.SearchCost, res.Evals)
		}
	}
}

func TestTunerNames(t *testing.T) {
	if (RandomSearch{}).Name() != "RandomSearch" ||
		(BestConfig{}).Name() != "BestConfig" ||
		(Gunther{}).Name() != "Gunther" {
		t.Error("tuner names wrong")
	}
}

func TestFuncObjectiveBasics(t *testing.T) {
	space := smallSpace(t)
	obj := &FuncObjective{
		Fn: func(c conf.Config) (float64, bool) {
			return float64(c.Int("cores")) * 10, true
		},
		Cap:      480,
		Workload: "W",
		Dataset:  "D",
	}
	c := space.Default() // cores=4
	rec := obj.EvaluateSpec(c, backend.EvalSpec{})
	if !rec.Completed || rec.Seconds != 40 || rec.Raw != 40 {
		t.Fatalf("rec = %+v", rec)
	}
	if obj.Evals() != 1 || obj.SearchCost() != 40 {
		t.Errorf("accounting: %d %v", obj.Evals(), obj.SearchCost())
	}
	if obj.WorkloadName() != "W" || obj.DatasetName() != "D" {
		t.Error("identity lost")
	}
}

func TestFuncObjectiveCapAndFailure(t *testing.T) {
	space := smallSpace(t)
	obj := &FuncObjective{
		Fn:  func(c conf.Config) (float64, bool) { return 1000, true },
		Cap: 100,
	}
	rec := obj.EvaluateSpec(space.Default(), backend.EvalSpec{})
	if rec.Completed {
		t.Error("over-cap run should not complete")
	}
	if rec.Seconds != 100 {
		t.Errorf("objective value %v, want cap 100", rec.Seconds)
	}
	if obj.SearchCost() != 100 {
		t.Errorf("cost %v, want capped 100", obj.SearchCost())
	}

	fail := &FuncObjective{Fn: func(c conf.Config) (float64, bool) { return 5, false }}
	rec = fail.EvaluateSpec(space.Default(), backend.EvalSpec{})
	if rec.Completed || rec.Seconds != 480 {
		t.Errorf("failed run rec = %+v", rec)
	}
	if fail.SearchCost() != 5 {
		t.Errorf("failed run cost %v, want consumed 5", fail.SearchCost())
	}
}

func TestFuncObjectiveGuardCap(t *testing.T) {
	obj := &FuncObjective{
		Fn:  func(c conf.Config) (float64, bool) { return 50, true },
		Cap: 480,
	}
	space := smallSpace(t)
	// A guard cap below the measured time truncates the run.
	rec := obj.EvaluateSpec(space.Default(), backend.EvalSpec{Cap: 30})
	if rec.Completed {
		t.Error("guard-truncated run should not complete")
	}
	if obj.SearchCost() != 30 {
		t.Errorf("cost %v, want guard cap 30", obj.SearchCost())
	}
}

func TestFuncObjectiveDrivesAllTuners(t *testing.T) {
	space := smallSpace(t)
	for _, tn := range []Tuner{RandomSearch{}, BestConfig{RoundSize: 10}, Gunther{}} {
		obj := &FuncObjective{Fn: smoothObjective}
		res := tn.Run(NewSession(obj, space, Request{Budget: 30, Seed: 3}))
		if !res.Found || res.Evals != 30 {
			t.Errorf("%s via FuncObjective: found=%v evals=%d", tn.Name(), res.Found, res.Evals)
		}
	}
}
