package tuners

import (
	"context"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/sparksim"
)

func TestBOHBFindsOnSimulator(t *testing.T) {
	space := conf.SparkSpace()
	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), 4, 480)
	res := BOHB{}.Run(NewSession(ev, space, Request{Budget: 30, Seed: 4}))
	if !res.Found {
		t.Fatal("BOHB found nothing on KMeans")
	}
	if res.Evals > 30 {
		t.Fatalf("evals = %d exceeds budget", res.Evals)
	}
	// The proxy rungs keep mean per-evaluation cost well below Random
	// Search, which runs every trial at full fidelity.
	evRS := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), 4, 480)
	rs := RandomSearch{}.Run(NewSession(evRS, space, Request{Budget: 30, Seed: 4}))
	perEval := res.SearchCost / float64(res.Evals)
	rsPerEval := rs.SearchCost / float64(rs.Evals)
	if perEval >= rsPerEval {
		t.Errorf("BOHB per-eval cost %v should be below RS %v (proxy savings)", perEval, rsPerEval)
	}
}

func TestBOHBDeterministic(t *testing.T) {
	run := func() Result {
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(150), 4, 480)
		return BOHB{}.Run(NewSession(ev, conf.SparkSpace(), Request{Budget: 20, Seed: 9}))
	}
	a, b := run(), run()
	if a.BestSeconds != b.BestSeconds || a.SearchCost != b.SearchCost {
		t.Error("same seed differs")
	}
}

// TestBOHBWorkersParity: bracket promotion (and therefore the whole
// session) must be bit-identical whether rung waves run sequentially
// or concurrently.
func TestBOHBWorkersParity(t *testing.T) {
	run := func(workers int) Result {
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.PageRank(40), 4, 480)
		return BOHB{Workers: workers}.Run(NewSession(ev, conf.SparkSpace(), Request{Budget: 18, Seed: 7}))
	}
	seq, par := run(1), run(4)
	if seq.BestSeconds != par.BestSeconds || seq.SearchCost != par.SearchCost {
		t.Fatalf("workers=1 best/cost %v/%v, workers=4 %v/%v",
			seq.BestSeconds, seq.SearchCost, par.BestSeconds, par.SearchCost)
	}
	if len(seq.Trace) != len(par.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(seq.Trace), len(par.Trace))
	}
	for i := range seq.Trace {
		if seq.Trace[i] != par.Trace[i] {
			t.Fatalf("trace[%d] = %v (workers=1) vs %v (workers=4)", i, seq.Trace[i], par.Trace[i])
		}
	}
}

// cancellingSpecObjective cancels the session's context after n
// spec-driven evaluations; it overrides EvaluateSpec so the counting
// survives the promoted-method routing.
type cancellingSpecObjective struct {
	*sparksim.Evaluator
	cancel context.CancelFunc
	left   int
}

func (c *cancellingSpecObjective) EvaluateSpec(cfg conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	rec := c.Evaluator.EvaluateSpec(cfg, spec)
	c.left--
	if c.left <= 0 {
		c.cancel()
	}
	return rec
}

// TestBOHBKillResumeMidBracket: a session killed mid-bracket must
// resume from its journal bit-identically — replaying the proxy-rung
// records at their journaled fidelities and finishing the bracket
// live with exactly the evaluations the uninterrupted run performed.
func TestBOHBKillResumeMidBracket(t *testing.T) {
	space := conf.SparkSpace()
	req := func(jn *journal.Journal, ctx context.Context) Request {
		return Request{Budget: 16, Seed: 11, Journal: jn, Ctx: ctx}
	}
	newEval := func() *sparksim.Evaluator {
		return sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(150), 4, 480)
	}
	meta := journal.Meta{Seed: 11, Budget: 16, Tuner: "BOHB"}

	// Uninterrupted baseline.
	full := BOHB{}.Run(NewSession(newEval(), space, req(nil, nil)))
	if !full.Found {
		t.Fatal("baseline found nothing")
	}

	// Interrupted run: cancelled after 5 evaluations — mid first rung
	// of the first bracket (9 proxy trials at the cheapest fidelity).
	path := filepath.Join(t.TempDir(), "bohb.jnl")
	jn, err := journal.Open(path, meta, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	obj := &cancellingSpecObjective{Evaluator: newEval(), cancel: cancel, left: 5}
	killed := BOHB{}.Run(NewSession(obj, space, req(jn, ctx)))
	jn.Close()
	if !killed.Cancelled {
		t.Fatal("interrupted session not marked cancelled")
	}
	if killed.Evals >= full.Evals {
		t.Fatalf("interrupted session ran %d evals, baseline %d — not killed mid-bracket", killed.Evals, full.Evals)
	}

	// Resume: the journaled prefix replays (with its fidelities), the
	// rest runs live, and the result matches the uninterrupted run.
	jn2, err := journal.Open(path, meta, journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	if jn2.ReplayPending() == 0 {
		t.Fatal("no journaled records to replay")
	}
	res := BOHB{}.Run(NewSession(newEval(), space, req(jn2, nil)))
	if reason := jn2.Diverged(); reason != "" {
		t.Fatalf("resume diverged: %s", reason)
	}
	jn2.Close()
	if res.BestSeconds != full.BestSeconds || res.SearchCost != full.SearchCost || res.Evals != full.Evals {
		t.Fatalf("resumed best/cost/evals %v/%v/%d, want %v/%v/%d",
			res.BestSeconds, res.SearchCost, res.Evals, full.BestSeconds, full.SearchCost, full.Evals)
	}
	if len(res.Trace) != len(full.Trace) {
		t.Fatalf("trace length %d, want %d", len(res.Trace), len(full.Trace))
	}
	for i := range full.Trace {
		if res.Trace[i] != full.Trace[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, res.Trace[i], full.Trace[i])
		}
	}
}

// TestBOHBGuardCapResumeSweep: a session cancelled after k
// evaluations, for every k, must resume from its journal to exactly
// the uninterrupted run's result. The objective's times are
// heavy-tailed, so the median-multiple guard cap binds; replay
// re-proposes single trials, so a rung's cap must not depend on how
// its proposals were chunked or on when the live rest of the rung is
// proposed.
func TestBOHBGuardCapResumeSweep(t *testing.T) {
	space := smallSpace(t)
	const budget, seed = 40, 3
	meta := journal.Meta{Seed: seed, Budget: budget, Tuner: "BOHB"}
	// newObj returns the objective; after k > 0 evaluations it cancels
	// the session's context.
	newObj := func(k int, cancel context.CancelFunc) *FuncObjective {
		n := 0
		return &FuncObjective{Fn: func(c conf.Config) (float64, bool) {
			sum := 0.0
			for _, u := range space.Encode(c) {
				sum += u
			}
			if n++; n == k {
				cancel()
			}
			return 10 * math.Exp(3*math.Sin(7*sum)), true
		}}
	}
	full := BOHB{}.Run(NewSession(newObj(0, nil), space, Request{Budget: budget, Seed: seed}))
	capped := 0
	for _, done := range full.Completed {
		if !done {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("the guard cap never bound; the sweep would show nothing")
	}
	for k := 2; k <= 30; k++ {
		path := filepath.Join(t.TempDir(), "bohb.jnl")
		jn, err := journal.Open(path, meta, journal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		killed := BOHB{}.Run(NewSession(newObj(k, cancel), space, Request{Budget: budget, Seed: seed, Journal: jn, Ctx: ctx}))
		jn.Close()
		cancel()
		if !killed.Cancelled {
			t.Fatalf("k=%d: session not cancelled", k)
		}
		jn, err = journal.Open(path, meta, journal.SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		res := BOHB{}.Run(NewSession(newObj(0, nil), space, Request{Budget: budget, Seed: seed, Journal: jn}))
		diverged := jn.Diverged()
		jn.Close()
		if diverged != "" {
			t.Fatalf("k=%d: resume diverged: %s", k, diverged)
		}
		if res.SearchCost != full.SearchCost || res.BestSeconds != full.BestSeconds || res.Evals != full.Evals ||
			!slices.Equal(res.Trace, full.Trace) {
			t.Errorf("k=%d: resumed cost/best/evals %v/%v/%d, uninterrupted %v/%v/%d",
				k, res.SearchCost, res.BestSeconds, res.Evals, full.SearchCost, full.BestSeconds, full.Evals)
		}
	}
}

// TestBOHBProxyNeverTakesIncumbent: proxy completions measure a
// reduced workload; the session incumbent must ignore them.
func TestBOHBProxyNeverTakesIncumbent(t *testing.T) {
	tr := newTracker()
	c := conf.Config{}
	tr.observe(c, backend.EvalRecord{
		Seconds: 3, Completed: true,
		Fidelity: backend.Fidelity{InputScale: 0.3},
	})
	if tr.found {
		t.Fatal("proxy observation took the incumbent")
	}
	tr.observe(c, backend.EvalRecord{Seconds: 120, Completed: true})
	if !tr.found || tr.bestSec != 120 {
		t.Fatalf("full-fidelity observation not incumbent: found=%v best=%v", tr.found, tr.bestSec)
	}
}

// TestBOHBStageAxis: under AxisStage the rung proposals carry
// stage-fraction fidelities (input scale untouched), the session still
// finds an incumbent, and the proxy savings survive — on an iterative
// workload stage truncation is the axis that actually cheapens runs.
func TestBOHBStageAxis(t *testing.T) {
	b := BOHB{Axis: AxisStage}
	st := b.Stepper(conf.SparkSpace(), 30, 4).(*bohbStepper)
	for r, want := range []backend.Fidelity{
		{StageFrac: 1.0 / 9}, {StageFrac: 1.0 / 3}, {},
	} {
		if got := st.rungFidelity(r); got != want {
			t.Fatalf("rung %d fidelity = %+v, want %+v", r, got, want)
		}
	}

	ev := sparksim.NewEvaluator(sparksim.PaperCluster(), sparksim.KMeans(200), 4, 480)
	res := b.Run(NewSession(ev, conf.SparkSpace(), Request{Budget: 30, Seed: 4}))
	if !res.Found {
		t.Fatal("stage-axis BOHB found nothing on KMeans")
	}
	proxies := 0
	for _, p := range res.Proxy {
		if p {
			proxies++
		}
	}
	if proxies == 0 || proxies == res.Evals {
		t.Fatalf("want a mix of proxy and full trials, got %d/%d", proxies, res.Evals)
	}
}

func TestValidFidelityLadder(t *testing.T) {
	for _, tc := range []struct {
		l  []float64
		ok bool
	}{
		{[]float64{1.0 / 9, 1.0 / 3, 1}, true},
		{[]float64{1}, true},
		{nil, false},
		{[]float64{0.5}, false},          // must end at 1
		{[]float64{0.5, 0.25, 1}, false}, // not ascending
		{[]float64{0, 0.5, 1}, false},    // zero rung
		{[]float64{-0.1, 1}, false},      // negative rung
		{[]float64{0.5, 0.5, 1}, false},  // not strictly ascending
		{make([]float64, 20), false},     // too long
	} {
		err := ValidFidelityLadder(tc.l)
		if (err == nil) != tc.ok {
			t.Errorf("ValidFidelityLadder(%v) = %v, want ok=%v", tc.l, err, tc.ok)
		}
	}
}

// TestBOHBDegenerateSettings: nonsense settings fall back to sane
// defaults without panics.
// TestBOHBTailWaitsForOutstanding: the tail phase proposes one
// full-fidelity trial at a time and, like every other sequential
// phase, proposes nothing while that trial is unobserved. A budget
// below one bracket (13 trials on the default ladder) starts the
// stepper in its tail.
func TestBOHBTailWaitsForOutstanding(t *testing.T) {
	st := BOHB{}.Stepper(smallSpace(t), 5, 3)
	first := st.Propose(1)
	if len(first) != 1 {
		t.Fatalf("first tail Propose returned %d proposals, want 1", len(first))
	}
	if again := st.Propose(1); len(again) != 0 {
		t.Fatalf("Propose with the tail trial outstanding returned %d proposals, want 0", len(again))
	}
	if n := st.Inflight().Outstanding(); n != 1 {
		t.Fatalf("outstanding = %d, want 1", n)
	}
	c := first[0].Config
	st.Observe(c, backend.EvalRecord{Config: c, Seconds: 60, Raw: 60, Completed: true})
	if next := st.Propose(1); len(next) != 1 {
		t.Fatalf("tail Propose after the observation returned %d proposals, want 1", len(next))
	}
}

func TestBOHBDegenerateSettings(t *testing.T) {
	obj := newSynth(smoothObjective)
	res := BOHB{Eta: 1, Ladder: []float64{0.7, 0.2}}.Run(NewSession(obj, smallSpace(t), Request{Budget: 20, Seed: 3}))
	if res.Evals == 0 {
		t.Error("no evaluations performed")
	}
}
