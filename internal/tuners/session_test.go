package tuners

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
)

// flakyObjective fails transiently on the first k attempts of every
// configuration, then succeeds.
func flakyObjective(failFirst int) *FuncObjective {
	attempts := map[string]int{}
	return &FuncObjective{
		FnOutcome: func(c conf.Config) (float64, bool, bool) {
			key := fmt.Sprintf("%d|%.6f", c.Int("cores"), c.Float("frac"))
			attempts[key]++
			if attempts[key] <= failFirst {
				return 30, false, true // transient: a retry will succeed
			}
			sec, _ := smoothObjective(c)
			return sec, true, false
		},
	}
}

func TestSessionRetriesTransientFailures(t *testing.T) {
	obj := flakyObjective(1)
	sp := smallSpace(t)
	s := NewSession(obj, sp, Request{Budget: 10, Seed: 1,
		Retry: RetryPolicy{MaxRetries: 2}})
	res := RandomSearch{}.Run(s)

	if !res.Found {
		t.Fatal("retried session found nothing")
	}
	// Every trial fails once then succeeds: 10 trials, 10 retries.
	if res.Failures.Retries != 10 || res.Failures.Transient != 10 {
		t.Errorf("retries=%d transient=%d, want 10/10", res.Failures.Retries, res.Failures.Transient)
	}
	if res.Failures.Failed != 0 {
		t.Errorf("all trials eventually completed, yet Failed=%d", res.Failures.Failed)
	}
	// The retried attempts hit the objective too.
	if res.Evals != 20 {
		t.Errorf("Evals=%d, want 20 (10 trials x 2 attempts)", res.Evals)
	}
	if res.Failures.BackoffSeconds <= 0 {
		t.Error("no backoff accounted")
	}
	if len(res.Trace) != 10 {
		t.Errorf("trace holds %d entries, want one per trial (10)", len(res.Trace))
	}
}

func TestSessionRetriesExhaustedCountsFailure(t *testing.T) {
	obj := flakyObjective(5) // fails more times than the retry budget
	s := NewSession(obj, smallSpace(t), Request{Budget: 3, Seed: 2,
		Retry: RetryPolicy{MaxRetries: 1}})
	res := RandomSearch{}.Run(s)
	if res.Found {
		t.Fatal("nothing can complete, yet Found=true")
	}
	if res.Failures.Failed != 3 {
		t.Errorf("Failed=%d, want 3", res.Failures.Failed)
	}
	for i, v := range res.Trace {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("trace[%d] = %v", i, v)
		}
	}
}

func TestSessionDeadlineTightensCap(t *testing.T) {
	var caps []float64
	obj := &FuncObjective{
		Fn: func(c conf.Config) (float64, bool) { return 100, true },
	}
	// Wrap to spy the cap the session passes down.
	spy := &capSpy{inner: obj, caps: &caps}
	s := NewSession(spy, smallSpace(t), Request{Budget: 2, Seed: 3, Deadline: 120})
	RandomSearch{}.Run(s)
	if len(caps) != 2 {
		t.Fatalf("want 2 capped calls, got %d", len(caps))
	}
	for _, c := range caps {
		if c != 120 {
			t.Errorf("cap %v, want deadline 120", c)
		}
	}
	// A tuner cap tighter than the deadline wins.
	caps = nil
	s2 := NewSession(spy, smallSpace(t), Request{Budget: 1, Seed: 3, Deadline: 120})
	Drive(&waveStepper{space: s2.Space(), left: 1, cap: 60}, s2)
	if len(caps) != 1 || caps[0] != 60 {
		t.Errorf("caps=%v, want [60]", caps)
	}
}

// capSpy forwards to an inner objective while recording the cap of
// every spec the session passes down.
type capSpy struct {
	inner *FuncObjective
	caps  *[]float64
}

func (s *capSpy) EvaluateSpec(c conf.Config, spec backend.EvalSpec) backend.EvalRecord {
	*s.caps = append(*s.caps, spec.Cap)
	return s.inner.EvaluateSpec(c, spec)
}
func (s *capSpy) SearchCost() float64 { return s.inner.SearchCost() }
func (s *capSpy) Evals() int          { return s.inner.Evals() }

func TestSessionCancellationStopsAllTuners(t *testing.T) {
	for _, tn := range []Tuner{
		RandomSearch{}, BestConfig{RoundSize: 10}, Gunther{},
		SuccessiveHalving{}, CMAES{},
	} {
		t.Run(tn.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			evals := 0
			obj := newSynth(func(c conf.Config) (float64, bool) {
				evals++
				if evals >= 5 {
					cancel()
				}
				return smoothObjective(c)
			})
			res := tn.Run(NewSession(obj, smallSpace(t), Request{Ctx: ctx, Budget: 200, Seed: 4}))
			if !res.Cancelled {
				t.Fatal("result not marked cancelled")
			}
			// "Within one evaluation": the tuner must stop promptly, not
			// drain its 200-trial budget.
			if res.Evals > 6 {
				t.Fatalf("tuner kept going after cancel: %d evals", res.Evals)
			}
			if !res.Found {
				t.Fatal("best-so-far lost on cancellation")
			}
		})
	}
}

func TestSessionPreCancelledReturnsEmpty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obj := newSynth(smoothObjective)
	res := Gunther{}.Run(NewSession(obj, smallSpace(t), Request{Ctx: ctx, Budget: 50, Seed: 5}))
	if res.Found || res.Evals != 0 || !res.Cancelled {
		t.Fatalf("pre-cancelled session ran work: %+v", res)
	}
}

func TestSessionBatchFallbackAppliesRetries(t *testing.T) {
	obj := flakyObjective(1) // FuncObjective: no batch capability
	sp := smallSpace(t)
	s := NewSession(obj, sp, Request{Budget: 4, Seed: 6,
		Retry: RetryPolicy{MaxRetries: 1}})
	res := Drive(&waveStepper{space: sp, left: 4}, s)
	if len(res.Completed) != 4 {
		t.Fatalf("want 4 records, got %d", len(res.Completed))
	}
	// Same config each time: first trial retries once and succeeds,
	// the rest succeed immediately.
	if !res.Completed[0] || res.Failures.Retries != 1 {
		t.Errorf("first record completed %v, retries=%d", res.Completed[0], res.Failures.Retries)
	}
}

// waveStepper proposes its whole budget as one parallel wave, each
// trial under the stopping cap cap.
type waveStepper struct {
	Protocol
	space *conf.Space
	left  int
	cap   float64
}

func (st *waveStepper) Done() bool        { return st.left <= 0 }
func (st *waveStepper) EvalParallel() int { return 4 }

func (st *waveStepper) Propose(n int) []Proposal {
	st.CheckPropose(st.Done())
	p := make([]Proposal, st.left)
	for i := range p {
		p[i] = Proposal{Config: st.space.Default(), Cap: st.cap}
	}
	st.left = 0
	st.Proposed(p)
	return p
}

func (st *waveStepper) Observe(c conf.Config, rec backend.EvalRecord) { st.Observed(c) }

// TestDriveJournalsFallbackWavePerTrial: a parallel wave that degrades
// to the sequential loop (here the objective cannot batch) commits each
// finished trial to the journal before the next one is evaluated, so a
// crash mid-wave loses at most the trial in progress.
func TestDriveJournalsFallbackWavePerTrial(t *testing.T) {
	sp := smallSpace(t)
	jn, err := journal.Open(filepath.Join(t.TempDir(), "w.jnl"), sessionMeta(), journal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	var committed []int
	obj := &FuncObjective{FnOutcome: func(c conf.Config) (float64, bool, bool) {
		committed = append(committed, jn.Trials())
		sec, _ := smoothObjective(c)
		return sec, true, false
	}}
	Drive(&waveStepper{space: sp, left: 4}, NewSession(obj, sp, Request{Budget: 4, Seed: 1, Journal: jn}))
	if want := []int{0, 1, 2, 3}; !slices.Equal(committed, want) {
		t.Fatalf("journaled trials at each evaluation %v, want %v", committed, want)
	}
}
