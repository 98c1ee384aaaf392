package tuners

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
)

func testRecord(c conf.Config, sec float64) backend.EvalRecord {
	return backend.EvalRecord{Config: c, Seconds: sec, Raw: sec, Completed: true}
}

// mustPanic runs f and fails the test unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// steppersUnderTest builds one small instance of every baseline
// stepper for protocol tests.
func steppersUnderTest(space *conf.Space) map[string]Stepper {
	return map[string]Stepper{
		"RandomSearch":      RandomSearch{}.Stepper(space, 8, 3),
		"BestConfig":        tunerStepper(BestConfig{RoundSize: 4}, space, 8, 3),
		"Gunther":           tunerStepper(Gunther{PopSize: 4, Elite: 1}, space, 10, 3),
		"SuccessiveHalving": SuccessiveHalving{}.Stepper(space, 8, 3),
		"CMAES":             CMAES{Lambda: 4}.Stepper(space, 8, 3),
	}
}

// tunerStepper is a tiny adapter: BestConfig and Gunther expose their
// steppers with the same signature, this keeps the table literal tidy.
func tunerStepper(t interface {
	Stepper(space *conf.Space, budget int, seed uint64) Stepper
}, space *conf.Space, budget int, seed uint64) Stepper {
	return t.Stepper(space, budget, seed)
}

func TestObserveWithoutProposePanics(t *testing.T) {
	space := conf.SparkSpace()
	for name, st := range steppersUnderTest(space) {
		c := space.Default()
		mustPanic(t, name+": Observe without Propose", func() {
			st.Observe(c, testRecord(c, 100))
		})
	}
}

func TestDoubleObservePanics(t *testing.T) {
	space := conf.SparkSpace()
	for name, st := range steppersUnderTest(space) {
		props := st.Propose(1)
		if len(props) == 0 {
			t.Fatalf("%s: no initial proposal", name)
		}
		c := props[0].Config
		st.Observe(c, testRecord(c, 100))
		mustPanic(t, name+": double Observe", func() {
			st.Observe(c, testRecord(c, 100))
		})
	}
}

func TestProposeAfterDonePanics(t *testing.T) {
	space := conf.SparkSpace()
	for name, st := range steppersUnderTest(space) {
		// Drain the stepper to completion with plausible outcomes.
		for steps := 0; !st.Done(); steps++ {
			if steps > 10000 {
				t.Fatalf("%s: stepper never finished", name)
			}
			props := st.Propose(0)
			if len(props) == 0 {
				break
			}
			for _, p := range props {
				st.Observe(p.Config, testRecord(p.Config, 100))
			}
		}
		if !st.Done() {
			continue // stepper ended by empty Propose; Done-panic not reachable
		}
		mustPanic(t, name+": Propose after Done", func() {
			st.Propose(1)
		})
	}
}

// detRecord is the outcome of a deterministic objective: a function of
// the proposed configuration alone, with about one run in ten failing.
func detRecord(p Proposal) backend.EvalRecord {
	h := 0.0
	for j, v := range p.Config.Space().Encode(p.Config) {
		h += v * float64(j%7+1)
	}
	rec := testRecord(p.Config, 50+400*(h-math.Floor(h)))
	if math.Mod(10*h, 1) < 0.1 {
		rec.Completed = false
		rec.Seconds = math.Max(p.Cap, 480)
	}
	return rec
}

// driveShuffled runs st to completion against detRecord and returns its
// proposals in the order it made them. With a nil rng every Propose
// asks for everything and observes it in order; otherwise chunk sizes
// are random, and a random subset of the trials in flight is observed
// in random order after each Propose.
func driveShuffled(t *testing.T, name string, st Stepper, rng *rand.Rand) []Proposal {
	t.Helper()
	var all, inflight []Proposal
	for steps := 0; !st.Done(); steps++ {
		if steps > 10000 {
			t.Fatalf("%s: stepper never finished", name)
		}
		n := 0 // "everything you have"
		if rng != nil {
			n = rng.IntN(5)
		}
		props := st.Propose(n)
		all = append(all, props...)
		inflight = append(inflight, props...)
		if len(inflight) == 0 {
			break
		}
		k := len(inflight)
		if rng != nil {
			k = 1 + rng.IntN(len(inflight))
		}
		for j := 0; j < k; j++ {
			pick := 0
			if rng != nil {
				pick = rng.IntN(len(inflight))
			}
			p := inflight[pick]
			inflight = append(inflight[:pick], inflight[pick+1:]...)
			st.Observe(p.Config, detRecord(p))
		}
	}
	return all
}

func sameProposals(a, b []Proposal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Config.Equal(b[i].Config) || a[i].Cap != b[i].Cap || a[i].Fidelity != b[i].Fidelity {
			return false
		}
	}
	return true
}

// TestStepperInterleavings fuzzes the driver schedule: randomized chunk
// sizes and randomized out-of-order observation of in-flight trials,
// the any-order Observe contract the batch driver relies on. The
// objective is a function of the configuration, so a stepper that
// credits an observation to the wrong trial of its batch proposes
// differently: every stepper must propose exactly the sequence it
// proposes when driven in order. BOHB is only required to finish: it
// feeds each observation to its surrogate in arrival order, so
// shuffled observations legitimately change its later brackets.
func TestStepperInterleavings(t *testing.T) {
	space := conf.SparkSpace()
	want := map[string][]Proposal{}
	for name, st := range steppersUnderTest(space) {
		if want[name] = driveShuffled(t, name, st, nil); len(want[name]) == 0 {
			t.Fatalf("%s: no proposals at all", name)
		}
	}
	for round := 0; round < 20; round++ {
		// One schedule per stepper, so a failing round replays alike
		// whatever order the map is walked in.
		schedule := func() *rand.Rand { return rand.New(rand.NewPCG(uint64(round), 99)) }
		for name, st := range steppersUnderTest(space) {
			if got := driveShuffled(t, name, st, schedule()); !sameProposals(got, want[name]) {
				t.Errorf("%s round %d: shuffled driving proposed a different sequence (%d proposals, in order %d)", name, round, len(got), len(want[name]))
			}
		}
		if got := driveShuffled(t, "BOHB", BOHB{}.Stepper(space, 15, 3), schedule()); len(got) == 0 {
			t.Errorf("BOHB round %d: no evaluations at all", round)
		}
	}
}

// TestResultCompleted checks the Completed parallel slice: one entry
// per trace point, marking which evaluations finished.
func TestResultCompleted(t *testing.T) {
	space := conf.SparkSpace()
	calls := 0
	obj := &FuncObjective{Fn: func(c conf.Config) (float64, bool) {
		calls++
		return 100, calls%3 != 0 // every third run fails
	}}
	res := RandomSearch{}.Run(NewSession(obj, space, Request{Budget: 9, Seed: 5}))
	if len(res.Completed) != len(res.Trace) {
		t.Fatalf("Completed length %d != Trace length %d", len(res.Completed), len(res.Trace))
	}
	nFail := 0
	for _, ok := range res.Completed {
		if !ok {
			nFail++
		}
	}
	if nFail != 3 {
		t.Errorf("completed flags record %d failures, want 3", nFail)
	}
}
