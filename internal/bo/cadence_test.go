package bo

import (
	"math"
	"testing"
	"time"

	"repro/internal/sample"
)

// stepClock is a deterministic fake clock: every Now() call advances
// it by one fixed step, so elapsed time is a pure function of how many
// times the engine consulted the clock.
type stepClock struct {
	t    time.Time
	step time.Duration
}

func (c *stepClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func cadenceObjective(u []float64) float64 {
	s := 0.0
	for j := range u {
		d := u[j] - 0.5
		s += d * d
	}
	return s + 0.1*math.Sin(5*u[0])
}

// TestRefitBudgetZeroMatchesFixedCadence: with RefitBudget unset the
// engine must behave bit-identically to the pre-budget fixed cadence —
// the clock instrumentation must not perturb a single suggestion.
func TestRefitBudgetZeroMatchesFixedCadence(t *testing.T) {
	mk := func(withClock bool) *Engine {
		cfg := Config{Seed: 21, CandidatePool: 64, Starts: 1, GPRestarts: 1}
		if withClock {
			cfg.Now = (&stepClock{t: time.Unix(0, 0), step: time.Second}).Now
		}
		return New(3, cfg)
	}
	a, b := mk(false), mk(true)
	rng := sample.NewRNG(4)
	for _, u := range sample.LHS(4, 3, rng) {
		if err := a.Tell(u, cadenceObjective(u)); err != nil {
			t.Fatal(err)
		}
		if err := b.Tell(u, cadenceObjective(u)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 10; round++ {
		ua, err := a.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		ub, err := b.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		for j := range ua {
			if ua[j] != ub[j] {
				t.Fatalf("round %d: suggestion differs at dim %d: %v vs %v", round, j, ua[j], ub[j])
			}
		}
		a.Tell(ua, cadenceObjective(ua))
		b.Tell(ub, cadenceObjective(ub))
	}
	sa, sb := a.RefitStats(), b.RefitStats()
	if sa.HyperRefits != sb.HyperRefits || sa.Extends != sb.Extends {
		t.Fatalf("cadence diverged: %+v vs %+v", sa, sb)
	}
	if sa.HyperRefits != 2 {
		t.Fatalf("fixed cadence made %d hyper refits over n=4..13, want 2 (n=4 and n=9)", sa.HyperRefits)
	}
}

// TestRefitBudgetCadence drives the budgeted cadence with a step
// clock: one hyper refit costs a fixed 1s of fake time, so with a 10%
// budget the engine must switch to incremental extensions until
// enough wall clock accumulates, then refit again.
func TestRefitBudgetCadence(t *testing.T) {
	cfg := Config{Seed: 33, CandidatePool: 64, Starts: 1, GPRestarts: 1}
	cfg.RefitBudget = 0.1
	cfg.Now = (&stepClock{t: time.Unix(0, 0), step: time.Second}).Now
	e := New(3, cfg)
	rng := sample.NewRNG(5)
	for _, u := range sample.LHS(3, 3, rng) {
		if err := e.Tell(u, cadenceObjective(u)); err != nil {
			t.Fatal(err)
		}
	}
	var afterFirst RefitStats
	for round := 0; round < 12; round++ {
		u, err := e.Suggest()
		if err != nil {
			t.Fatal(err)
		}
		e.Tell(u, cadenceObjective(u))
		if round == 0 {
			afterFirst = e.RefitStats()
		}
	}
	if afterFirst.HyperRefits != 1 || afterFirst.Extends != 0 {
		t.Fatalf("first Surrogate must hyper-refit: %+v", afterFirst)
	}
	st := e.RefitStats()
	if st.PosteriorRefits != 0 {
		t.Fatalf("budgeted cadence fell back to posterior-only refits: %+v", st)
	}
	if st.Extends < 5 {
		t.Fatalf("budgeted cadence extended only %d times over 12 rounds at a 10%% budget", st.Extends)
	}
	if st.HyperRefits < 2 {
		t.Fatalf("budget never released a second hyper refit: %+v", st)
	}
	if st.HyperRefits >= 12 {
		t.Fatalf("budget did not throttle refits at all: %+v", st)
	}
	if st.RefitSeconds <= 0 || st.ElapsedSeconds <= st.RefitSeconds {
		t.Fatalf("implausible timing accounting: %+v", st)
	}
}

// TestSparseEngineSurrogate: with SparseThreshold set, the fitted
// surrogate past the threshold must be the bounded local-subset GP and
// the cadence stats must surface it.
func TestSparseEngineSurrogate(t *testing.T) {
	cfg := Config{Seed: 9, CandidatePool: 64, Starts: 1, GPRestarts: 1}
	cfg.SparseThreshold = 16
	e := New(4, cfg)
	rng := sample.NewRNG(6)
	for _, u := range sample.LHS(40, 4, rng) {
		if err := e.Tell(u, cadenceObjective(u)); err != nil {
			t.Fatal(err)
		}
	}
	g, err := e.Surrogate()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Sparse() {
		t.Fatalf("surrogate not sparse past threshold")
	}
	if g.ActiveSize() != 16 || g.N() != 40 {
		t.Fatalf("active=%d n=%d, want 16/40", g.ActiveSize(), g.N())
	}
	st := e.RefitStats()
	if !st.Sparse || st.ActiveSize != 16 || st.Observations != 40 {
		t.Fatalf("stats do not surface sparse state: %+v", st)
	}
	if _, err := e.Suggest(); err != nil {
		t.Fatalf("Suggest on sparse surrogate: %v", err)
	}
}
