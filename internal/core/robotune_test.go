package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/conf"
	"repro/internal/mapping"
	"repro/internal/memo"
	"repro/internal/sparksim"
	"repro/internal/tuners"
)

// fastOptions shrinks the expensive knobs so unit tests stay quick
// while exercising the full pipeline.
func fastOptions() Options {
	o := Options{}
	o = o.withDefaults()
	o.GenericSamples = 60
	o.Forest.Trees = 40
	o.PermuteRepeats = 3
	o.BO.CandidatePool = 64
	o.BO.Starts = 1
	o.BO.GP.Restarts = 1
	return o
}

func newEvaluator(w sparksim.Workload, seed uint64) *sparksim.Evaluator {
	return sparksim.NewEvaluator(sparksim.PaperCluster(), w, seed, 480)
}

func TestTuneEndToEnd(t *testing.T) {
	r := New(nil, fastOptions())
	ev := newEvaluator(sparksim.TeraSort(20), 1)
	res := r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 40, Seed: 1}))

	if !res.Found {
		t.Fatal("ROBOTune found no completing configuration")
	}
	if res.BestSeconds > 300 {
		t.Errorf("best = %v, want well under the 480 cap", res.BestSeconds)
	}
	if res.Evals != 40 {
		t.Errorf("tuning evals = %d, want exactly the budget", res.Evals)
	}
	if res.SelectionEvals != 60 {
		t.Errorf("selection evals = %d, want 60 (cache miss)", res.SelectionEvals)
	}
	if res.SelectionCost <= 0 || res.SearchCost <= 0 {
		t.Errorf("costs: selection=%v search=%v", res.SelectionCost, res.SearchCost)
	}
	if len(res.SelectedParams) == 0 {
		t.Fatal("no parameters selected")
	}
	if len(res.Trace) != 40 {
		t.Errorf("trace length %d", len(res.Trace))
	}
}

func TestSelectionCacheHitSkipsSelection(t *testing.T) {
	r := New(nil, fastOptions())
	space := conf.SparkSpace()

	ev1 := newEvaluator(sparksim.PageRank(5), 2)
	res1 := r.Run(tuners.NewSession(ev1, space, tuners.Request{Budget: 30, Seed: 2}))
	if res1.SelectionEvals == 0 {
		t.Fatal("first session should run selection")
	}

	// Same workload family, different dataset: cache hit.
	ev2 := newEvaluator(sparksim.PageRank(10), 3)
	res2 := r.Run(tuners.NewSession(ev2, space, tuners.Request{Budget: 30, Seed: 3}))
	if res2.SelectionEvals != 0 || res2.SelectionCost != 0 {
		t.Errorf("repeat session ran selection: evals=%d cost=%v",
			res2.SelectionEvals, res2.SelectionCost)
	}
	// And the same parameters were reused.
	if len(res1.SelectedParams) != len(res2.SelectedParams) {
		t.Errorf("selection changed across sessions: %v vs %v",
			res1.SelectedParams, res2.SelectedParams)
	}
}

func TestSelectionFindsExecutorSizing(t *testing.T) {
	// Executor cores/memory dominate every workload in the simulator
	// (as in Figure 8); selection must find at least one of the
	// executor resource parameters.
	opts := fastOptions()
	opts.GenericSamples = 80
	r := New(nil, opts)
	ev := newEvaluator(sparksim.PageRank(5), 4)
	r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Seed: 4}))
	sel := r.LastSelection
	if sel == nil {
		t.Fatal("selection did not run")
	}
	found := false
	for _, p := range sel.Params {
		if p == conf.ExecutorCores || p == conf.ExecutorMemory || p == conf.ExecutorInstances {
			found = true
		}
	}
	if !found {
		t.Errorf("executor sizing not selected: %v", sel.Params)
	}
	if len(sel.Ranking) == 0 {
		t.Error("empty ranking")
	}
	// Ranking is sorted by importance.
	for i := 1; i < len(sel.Ranking); i++ {
		if sel.Ranking[i].Drop > sel.Ranking[i-1].Drop {
			t.Errorf("ranking not sorted at %d", i)
		}
	}
}

func TestMemoizationSeedsRepeatSessions(t *testing.T) {
	r := New(nil, fastOptions())
	space := conf.SparkSpace()

	ev1 := newEvaluator(sparksim.KMeans(200), 5)
	res1 := r.Run(tuners.NewSession(ev1, space, tuners.Request{Budget: 40, Seed: 5}))
	if !res1.Found {
		t.Fatal("session 1 failed")
	}
	// The buffer now holds configurations for KMeans.
	if got := r.Store().BestConfigs("KMeans", 4); len(got) == 0 {
		t.Fatal("memoization buffer empty after session")
	}

	// Second session on a different dataset: the memoized configs are
	// evaluated first, so an early observation should already be
	// competitive (§5.4: memoized sampling reaches ~10% of best fast).
	ev2 := newEvaluator(sparksim.KMeans(300), 6)
	res2 := r.Run(tuners.NewSession(ev2, space, tuners.Request{Budget: 40, Seed: 6}))
	if !res2.Found {
		t.Fatal("session 2 failed")
	}
	earlyBest := math.Inf(1)
	for _, v := range res2.Trace[:4] {
		if v < earlyBest {
			earlyBest = v
		}
	}
	if earlyBest > res2.BestSeconds*1.6 {
		t.Errorf("memoized warm start ineffective: early best %v vs final %v",
			earlyBest, res2.BestSeconds)
	}
}

func TestGuardCapsLongRuns(t *testing.T) {
	// With the guard on, no tuning-phase evaluation after the first
	// should run materially past GuardMultiple x the current median;
	// verify the total cost is lower than with the guard disabled.
	base := fastOptions()
	withGuard := New(nil, base)
	evA := newEvaluator(sparksim.KMeans(400), 7)
	resA := withGuard.Run(tuners.NewSession(evA, conf.SparkSpace(), tuners.Request{Budget: 30, Seed: 7}))

	noGuard := base
	noGuard.GuardMultiple = -1
	without := New(nil, noGuard)
	evB := newEvaluator(sparksim.KMeans(400), 7)
	resB := without.Run(tuners.NewSession(evB, conf.SparkSpace(), tuners.Request{Budget: 30, Seed: 7}))

	if !resA.Found || !resB.Found {
		t.Fatalf("found: guard=%v noguard=%v", resA.Found, resB.Found)
	}
	if resA.SearchCost >= resB.SearchCost*1.05 {
		t.Errorf("guarded cost %v should not exceed unguarded %v",
			resA.SearchCost, resB.SearchCost)
	}
}

func TestSelectFromDataValidation(t *testing.T) {
	r := New(nil, fastOptions())
	if _, err := r.SelectFromData(conf.SparkSpace(), nil, nil, 1); err == nil {
		t.Error("empty data accepted")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.GenericSamples != 100 || o.TuningSamples != 20 || o.MemoConfigs != 4 {
		t.Errorf("sampling defaults: %+v", o)
	}
	if o.ImportanceThreshold != 0.05 || o.PermuteRepeats != 10 {
		t.Errorf("selection defaults: %+v", o)
	}
	if o.GuardMultiple != 3 {
		t.Errorf("guard default: %v", o.GuardMultiple)
	}
}

func TestTunerInterfaceCompliance(t *testing.T) {
	var _ tuners.Tuner = New(nil, Options{})
}

func TestDeterministicTune(t *testing.T) {
	run := func() tuners.Result {
		r := New(nil, fastOptions())
		ev := newEvaluator(sparksim.TeraSort(20), 9)
		return r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 25, Seed: 9}))
	}
	a, b := run(), run()
	if a.BestSeconds != b.BestSeconds || a.SearchCost != b.SearchCost {
		t.Errorf("same seeds, different results: %v/%v vs %v/%v",
			a.BestSeconds, a.SearchCost, b.BestSeconds, b.SearchCost)
	}
}

func TestInspectionHooksPopulated(t *testing.T) {
	r := New(nil, fastOptions())
	ev := newEvaluator(sparksim.TeraSort(20), 10)
	r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 25, Seed: 10}))
	if r.LastEngine == nil || r.LastSubspace == nil {
		t.Fatal("inspection hooks not populated")
	}
	if r.LastEngine.N() != 25 {
		t.Errorf("engine holds %d observations, want 25", r.LastEngine.N())
	}
	if r.LastSubspace.Dim() < 2 {
		t.Errorf("subspace dim %d", r.LastSubspace.Dim())
	}
}

func TestMemoStorePersistenceAcrossInstances(t *testing.T) {
	store := memo.NewStore()
	r1 := New(store, fastOptions())
	ev := newEvaluator(sparksim.ConnectedComponents(5), 11)
	r1.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 25, Seed: 11}))

	// A new ROBOTune sharing the store inherits the caches.
	r2 := New(store, fastOptions())
	ev2 := newEvaluator(sparksim.ConnectedComponents(10), 12)
	res := r2.Run(tuners.NewSession(ev2, conf.SparkSpace(), tuners.Request{Budget: 25, Seed: 12}))
	if res.SelectionEvals != 0 {
		t.Error("shared store should give a selection cache hit")
	}
}

func TestTuneRespectsWallClockSanity(t *testing.T) {
	// Guard against pathological slowdowns in the BO stack: a small
	// session must finish quickly.
	start := time.Now()
	r := New(nil, fastOptions())
	ev := newEvaluator(sparksim.LogisticRegression(100), 13)
	r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 30, Seed: 13}))
	if el := time.Since(start); el > 30*time.Second {
		t.Errorf("tiny session took %v", el)
	}
}

func TestEarlyStoppingSavesBudget(t *testing.T) {
	opts := fastOptions()
	opts.EarlyStopPatience = 8
	r := New(nil, opts)
	ev := newEvaluator(sparksim.TeraSort(20), 15)
	res := r.Run(tuners.NewSession(ev, conf.SparkSpace(), tuners.Request{Budget: 100, Seed: 15}))
	if !res.Found {
		t.Fatal("nothing found")
	}
	if res.Evals >= 100 {
		t.Errorf("early stopping never fired: %d evals", res.Evals)
	}
	// The full run with the same seed finds at most marginally better.
	full := New(nil, fastOptions())
	evFull := newEvaluator(sparksim.TeraSort(20), 15)
	resFull := full.Run(tuners.NewSession(evFull, conf.SparkSpace(), tuners.Request{Budget: 100, Seed: 15}))
	if res.BestSeconds > resFull.BestSeconds*1.25 {
		t.Errorf("early-stopped best %v much worse than full-budget %v",
			res.BestSeconds, resFull.BestSeconds)
	}
}

func TestEarlyStoppingDisabledByDefault(t *testing.T) {
	o := Options{}.withDefaults()
	if o.EarlyStopPatience != 0 {
		t.Errorf("early stopping should default off (paper runs full budgets), got %d", o.EarlyStopPatience)
	}
	o2 := Options{EarlyStopPatience: 5}.withDefaults()
	if o2.EarlyStopEpsilon != 0.01 {
		t.Errorf("epsilon default = %v", o2.EarlyStopEpsilon)
	}
}

func TestWorkloadMappingInheritsSelection(t *testing.T) {
	opts := fastOptions()
	opts.Mapper = mapping.NewMapper(conf.SparkSpace(), 8, 99)
	opts.MapThreshold = 0.9
	r := New(nil, opts)
	space := conf.SparkSpace()

	// Tune PageRank: full selection runs, signature gets registered.
	ev1 := newEvaluator(sparksim.PageRank(5), 21)
	res1 := r.Run(tuners.NewSession(ev1, space, tuners.Request{Budget: 25, Seed: 21}))
	if res1.SelectionEvals <= opts.Mapper.ProbeCount() {
		t.Fatalf("first session should probe AND select, spent %d", res1.SelectionEvals)
	}

	// A renamed PageRank (fresh cache key) should map to PageRank and
	// inherit its selection after only the probe evaluations.
	w := sparksim.PageRank(7.5)
	w.Name = "WebGraphRank"
	ev2 := newEvaluator(w, 22)
	res2 := r.Run(tuners.NewSession(ev2, space, tuners.Request{Budget: 25, Seed: 22}))
	if res2.SelectionEvals != opts.Mapper.ProbeCount() {
		t.Errorf("mapped session spent %d selection evals, want just the %d probes",
			res2.SelectionEvals, opts.Mapper.ProbeCount())
	}
	if len(res2.SelectedParams) != len(res1.SelectedParams) {
		t.Errorf("mapped selection %v differs from source %v",
			res2.SelectedParams, res1.SelectedParams)
	}
	// The adopted selection is now cached under the new family name.
	if _, hit := r.Store().Selection("WebGraphRank"); !hit {
		t.Error("mapped selection not cached for the new family")
	}
}

func TestWorkloadMappingFallsBackBelowThreshold(t *testing.T) {
	opts := fastOptions()
	opts.Mapper = mapping.NewMapper(conf.SparkSpace(), 8, 99)
	opts.MapThreshold = 0.999999 // nothing is this similar
	r := New(nil, opts)
	space := conf.SparkSpace()

	ev1 := newEvaluator(sparksim.PageRank(5), 23)
	r.Run(tuners.NewSession(ev1, space, tuners.Request{Budget: 25, Seed: 23}))

	w := sparksim.KMeans(200)
	ev2 := newEvaluator(w, 24)
	res := r.Run(tuners.NewSession(ev2, space, tuners.Request{Budget: 25, Seed: 24}))
	// Probes + full selection: mapping tried but did not match.
	want := opts.Mapper.ProbeCount() + opts.GenericSamples
	if res.SelectionEvals != want {
		t.Errorf("selection evals = %d, want %d (probes + full selection)",
			res.SelectionEvals, want)
	}
}

func TestParallelSelectionMatchesSequential(t *testing.T) {
	space := conf.SparkSpace()
	seqOpts := fastOptions()
	parOpts := fastOptions()
	parOpts.Parallel = 8

	selectOnly := func(opts Options, ev *sparksim.Evaluator) *Selection {
		r := New(nil, opts)
		r.Run(tuners.NewSession(ev, space, tuners.Request{Seed: 33}))
		if r.LastSelection == nil {
			t.Fatal("selection did not run")
		}
		return r.LastSelection
	}
	evA := newEvaluator(sparksim.TeraSort(20), 33)
	selSeq := selectOnly(seqOpts, evA)
	evB := newEvaluator(sparksim.TeraSort(20), 33)
	selPar := selectOnly(parOpts, evB)
	if len(selSeq.Params) != len(selPar.Params) {
		t.Fatalf("parallel selection differs: %v vs %v", selPar.Params, selSeq.Params)
	}
	for i := range selSeq.Params {
		if selSeq.Params[i] != selPar.Params[i] {
			t.Fatalf("parallel selection differs at %d: %v vs %v", i, selPar.Params, selSeq.Params)
		}
	}
	if evA.SearchCost() != evB.SearchCost() {
		t.Errorf("costs differ: %v vs %v", evA.SearchCost(), evB.SearchCost())
	}
}

func TestExplain(t *testing.T) {
	r := New(nil, fastOptions())
	space := conf.SparkSpace()
	ev := newEvaluator(sparksim.TeraSort(20), 61)
	res := r.Run(tuners.NewSession(ev, space, tuners.Request{Budget: 25, Seed: 61}))
	out := r.Explain(space, res)
	for _, want := range []string{"parameter selection", "acquisition portfolio", "default"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// A cache-hit session explains the hit.
	ev2 := newEvaluator(sparksim.TeraSort(30), 62)
	res2 := r.Run(tuners.NewSession(ev2, space, tuners.Request{Budget: 25, Seed: 62}))
	_ = res2
	r.LastSelection = nil // simulate hit path (selection was cached)
	out2 := r.Explain(space, res2)
	if !strings.Contains(out2, "cache hit") {
		t.Errorf("cache-hit explanation missing:\n%s", out2)
	}
}
