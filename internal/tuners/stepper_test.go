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

// TestStepperInterleavings fuzzes the driver schedule: every stepper
// must produce a complete run under randomized chunk sizes and
// randomized out-of-order observation of in-flight trials, exercising
// the any-order Observe contract the batch driver relies on.
func TestStepperInterleavings(t *testing.T) {
	space := conf.SparkSpace()
	for round := 0; round < 20; round++ {
		rng := rand.New(rand.NewPCG(uint64(round), 99))
		for name, st := range steppersUnderTest(space) {
			evals := 0
			var inflight []Proposal
			for steps := 0; !st.Done(); steps++ {
				if steps > 10000 {
					t.Fatalf("%s round %d: stepper never finished", name, round)
				}
				props := st.Propose(rng.IntN(5)) // 0 = "everything you have"
				inflight = append(inflight, props...)
				if len(inflight) == 0 {
					break
				}
				// Observe a random subset, in random order.
				k := 1 + rng.IntN(len(inflight))
				for j := 0; j < k; j++ {
					pick := rng.IntN(len(inflight))
					p := inflight[pick]
					inflight = append(inflight[:pick], inflight[pick+1:]...)
					sec := 50 + 400*rng.Float64()
					rec := testRecord(p.Config, sec)
					if rng.IntN(10) == 0 {
						// Occasionally a failed (killed) run.
						rec.Completed = false
						rec.Seconds = math.Max(p.Cap, 480)
					}
					st.Observe(p.Config, rec)
					evals++
				}
			}
			if evals == 0 {
				t.Errorf("%s round %d: no evaluations at all", name, round)
			}
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
