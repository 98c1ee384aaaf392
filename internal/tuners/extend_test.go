package tuners

import (
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
)

// grantStub hands out a scripted sequence of budget grants and
// records the trial counts at which it was asked.
type grantStub struct {
	grants  []int
	askedAt []int
}

func (g *grantStub) Grant(trials int) int {
	g.askedAt = append(g.askedAt, trials)
	if len(g.grants) == 0 {
		return 0
	}
	n := g.grants[0]
	g.grants = g.grants[1:]
	return n
}

func extendObjective() *FuncObjective {
	return &FuncObjective{Fn: func(c conf.Config) (float64, bool) {
		s := 5.0
		for i := 0; i < c.Space().Dim(); i++ {
			s += c.RawAt(i) * 0.01
		}
		return s, true
	}}
}

// TestRandomSearchExtensionEquivalence: budget granted in pieces spends
// exactly like budget granted up front — 5 base + 3 granted produces
// the identical trial sequence as a plain budget of 8.
func TestRandomSearchExtensionEquivalence(t *testing.T) {
	space := conf.SparkSpace()
	want := RandomSearch{}.Run(NewSession(extendObjective(), space, Request{Budget: 8, Seed: 41}))

	gs := &grantStub{grants: []int{3}}
	got := RandomSearch{}.Run(NewSession(extendObjective(), space, Request{Budget: 5, Seed: 41, Grants: gs}))

	if len(got.Trace) != 8 {
		t.Fatalf("extended session ran %d trials, want 8", len(got.Trace))
	}
	if got.BestSeconds != want.BestSeconds || !got.Best.Equal(want.Best) {
		t.Fatalf("extended best (%v, %v) != direct best (%v, %v)",
			got.Best.ToMap(), got.BestSeconds, want.Best.ToMap(), want.BestSeconds)
	}
	for i := range want.Trace {
		if got.Trace[i] != want.Trace[i] {
			t.Fatalf("trace[%d] = %v, want %v", i, got.Trace[i], want.Trace[i])
		}
	}
	// The grant was requested exactly at base-budget exhaustion, and the
	// post-grant exhaustion asked once more (declined, ending the loop).
	if len(gs.askedAt) != 2 || gs.askedAt[0] != 5 || gs.askedAt[1] != 8 {
		t.Fatalf("grant draws at %v, want [5 8]", gs.askedAt)
	}
}

// nonExtender is a stepper that stops deliberately: it lacks the
// Extender capability entirely, so the driver must never charge the
// grant source on its behalf.
type nonExtender struct {
	Protocol
	space *conf.Space
	left  int
}

func (st *nonExtender) Done() bool { return st.left <= 0 }

func (st *nonExtender) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	st.left--
	p := []Proposal{{Config: st.space.Default()}}
	st.Proposed(p)
	return p
}

func (st *nonExtender) Observe(c conf.Config, rec backend.EvalRecord) { st.Observed(c) }

// TestNonExtenderNeverCharged: a declined extension must not draw from
// the grant pool — tryExtend checks the capability before asking, so
// the unspent budget stays available for sibling sessions.
func TestNonExtenderNeverCharged(t *testing.T) {
	space := conf.SparkSpace()
	gs := &grantStub{grants: []int{10}}
	s := NewSession(extendObjective(), space, Request{Budget: 10, Seed: 1, Grants: gs})
	res := Drive(&nonExtender{space: space, left: 4}, s)
	if len(res.Trace) != 4 {
		t.Fatalf("stepper ran %d trials, want 4", len(res.Trace))
	}
	if len(gs.askedAt) != 0 {
		t.Fatalf("grant source charged %d times for a non-extending stepper", len(gs.askedAt))
	}
	if len(gs.grants) != 1 {
		t.Fatal("grant was consumed despite never being applicable")
	}
}

// TestExtensionStopsWhenDeclined: a zero grant ends the session like
// plain budget exhaustion.
func TestExtensionStopsWhenDeclined(t *testing.T) {
	space := conf.SparkSpace()
	gs := &grantStub{} // always answers 0
	res := RandomSearch{}.Run(NewSession(extendObjective(), space, Request{Budget: 6, Seed: 3, Grants: gs}))
	if len(res.Trace) != 6 {
		t.Fatalf("declined extension changed the trial count: %d, want 6", len(res.Trace))
	}
	if len(gs.askedAt) != 1 || gs.askedAt[0] != 6 {
		t.Fatalf("grant draws at %v, want exactly [6]", gs.askedAt)
	}
}
