package tuners

import (
	"context"
	"math"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
)

// Request describes one tuning session: the evaluation budget and
// seed that every tuner needs, plus the robustness envelope —
// cancellation, per-run deadlines and a retry policy for transient
// failures. The zero value of every optional field is a plain
// budget-and-seed run.
type Request struct {
	// Ctx cancels the session: tuners stop starting evaluations once
	// it is done and return the best result so far. nil means no
	// cancellation (context.Background).
	Ctx context.Context
	// Budget is the maximum number of evaluations (trials — a retried
	// trial still counts once against the budget, though the extra
	// attempts do show up in Result.Evals and the search cost).
	Budget int
	// Seed drives the tuner's own randomness.
	Seed uint64
	// Deadline is a per-evaluation limit in simulated seconds, layered
	// under any tuner-chosen cap (the median-multiple guard): each run
	// is stopped at min(cap, Deadline). <= 0 means no extra deadline.
	Deadline float64
	// Retry bounds re-evaluation of transient failures.
	Retry RetryPolicy
	// Journal, when set, makes the session durable: every completed
	// evaluation is committed to the write-ahead journal before the
	// tuner acts on it, and a journal recovered from a previous run
	// replays its records in place of re-evaluating them — the
	// bit-identical resume path. nil disables journaling.
	Journal *journal.Journal
}

// RetryPolicy bounds how transient evaluation failures (lost
// heartbeats, fetch storms — EvalRecord.Transient) are retried. The
// zero value never retries.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts per trial (0 = none).
	MaxRetries int
}

// The retry backoff is exponential: retryBackoffBase seconds before the
// first re-attempt, retryBackoffFactor times longer before each next
// one. No wall-clock time passes; the backoff is accounted in
// FailureStats.BackoffSeconds.
const (
	retryBackoffBase   = 5.0
	retryBackoffFactor = 2.0
)

// FailureStats aggregates what went wrong during a session — the
// graceful-degradation ledger reported in Result.Failures.
type FailureStats struct {
	// Failed counts trials whose final attempt did not complete
	// (OOM, infeasible, truncated or transient past the retry budget).
	Failed int
	// Transient counts transient failures observed, including ones a
	// retry subsequently cured.
	Transient int
	// Retries counts re-attempts performed under the RetryPolicy.
	Retries int
	// OOM and Infeasible break Failed down by cause.
	OOM        int
	Infeasible int
	// BackoffSeconds is the simulated time spent backing off.
	BackoffSeconds float64
	// Skipped counts proposals observed as skipped: batch entries never
	// evaluated because the session's context was cancelled, or
	// proposals a remote client abandoned.
	Skipped int
}

// Session is the ask/tell kernel every tuning session runs on: it owns
// the stepper's pending proposals, the journal (commit before the
// stepper acts, replay on resume), the incumbent tracker, the failure
// ledger and the done record. Two thin drivers sit on top of it: Drive
// evaluates each proposal in process through eval, and the robotuned
// wire server relays proposals to remote clients and feeds their
// observations back through Observe.
//
// A session built without an Objective is driven externally: eval is
// unavailable, and the evaluation counter and search cost are counted
// from the observations (each evaluated observation charges one
// evaluation and min(Raw, Seconds) seconds).
//
// A Session is single-tuner, single-use state; it is not safe for
// concurrent calls (the batch path parallelizes internally).
type Session struct {
	obj   Objective // nil when a remote driver evaluates
	space *conf.Space
	req   Request
	tr    *tracker
	stats FailureStats
	spent streamPos // objective stream position after the last observation

	st     Stepper // its Protocol holds the pending proposals
	sealed bool
	result Result
}

// streamPos is an objective's evaluation counter and accumulated
// search cost — the position its noise and fault streams are indexed
// by, which every journal entry records.
type streamPos struct {
	evals int
	cost  float64
}

// NewSession prepares a session. A nil ctx in the request is replaced
// with context.Background. obj may be nil for an externally driven
// session.
func NewSession(obj Objective, space *conf.Space, req Request) *Session {
	if req.Ctx == nil {
		req.Ctx = context.Background()
	}
	return &Session{obj: obj, space: space, req: req, tr: newTracker()}
}

// Objective returns the underlying objective (nil when externally
// driven).
func (s *Session) Objective() Objective { return s.obj }

// Space returns the search space.
func (s *Session) Space() *conf.Space { return s.space }

// Ctx returns the session's context (never nil).
func (s *Session) Ctx() context.Context { return s.req.Ctx }

// Budget returns the trial budget.
func (s *Session) Budget() int { return s.req.Budget }

// Seed returns the tuner seed.
func (s *Session) Seed() uint64 { return s.req.Seed }

// Deadline returns the per-evaluation deadline (0 = none).
func (s *Session) Deadline() float64 { return s.req.Deadline }

// Done reports whether the session's context has been cancelled;
// tuners check it before starting each evaluation and unwind with the
// best-so-far when it trips.
func (s *Session) Done() bool {
	select {
	case <-s.req.Ctx.Done():
		return true
	default:
		return false
	}
}

// effectiveCap layers the request deadline under a tuner-chosen cap.
func (s *Session) effectiveCap(cap float64) float64 {
	if d := s.req.Deadline; d > 0 && (cap <= 0 || d < cap) {
		return d
	}
	return cap
}

// effectiveFidelity returns the fidelity the session will actually
// execute: the requested one when the objective can derive proxy runs
// (backend.FidelitySupporter), full fidelity otherwise — an objective
// without the capability can only run the full workload, and the
// record and journal stay honest about what ran. A full-fidelity
// request canonicalizes to the zero value so explicit
// {InputScale: 1} and the zero Fidelity journal and replay
// identically.
func (s *Session) effectiveFidelity(f backend.Fidelity) backend.Fidelity {
	if f.Full() {
		return backend.Fidelity{}
	}
	if fs, ok := s.obj.(backend.FidelitySupporter); !ok || !fs.SupportsFidelity() {
		return backend.Fidelity{}
	}
	return f
}

// position returns the objective's current stream position.
func (s *Session) position() streamPos {
	return streamPos{s.obj.Evals(), s.obj.SearchCost()}
}

// trial is one evaluated (or skipped) trial: its final record, the
// objective's stream position after it, whether it may be committed to
// the journal, and the attempt counts no record carries — transient
// attempts, retries and backoff seconds — which enter the ledger when
// the trial is observed, so each journal entry is stamped with the
// ledger after its own trial and no other.
type trial struct {
	rec       backend.EvalRecord
	pos       streamPos
	commit    bool
	transient int
	retries   int
	backoff   float64
}

// eval is the session's evaluation entry point: every trial — single
// or batch, capped or not, full or proxy fidelity — runs under one
// backend.EvalSpec. A single configuration takes the sequential path
// (deadline layering, transient retries); multiple configurations take
// the batch path, which evaluates concurrently on spec.Workers
// goroutines when the objective supports it and degrades to the
// sequential loop when per-trial retry/deadline handling is requested.
// eval hands each trial to done as soon as it is final: the sequential
// loop does so before the next trial starts, so a driver that observes
// in done commits every finished trial to the journal before paying
// for the next one; the concurrent path does so when the whole batch
// returns. It panics on a session without an Objective.
func (s *Session) eval(spec backend.EvalSpec, cfgs []conf.Config, done func(i int, t trial)) {
	switch len(cfgs) {
	case 0:
		return
	case 1:
		done(0, s.evalOne(cfgs[0], spec))
		return
	}
	be, isBatch := s.obj.(backend.BatchEvaluator)
	if !isBatch || s.req.Deadline > 0 || s.req.Retry.MaxRetries > 0 {
		for i, c := range cfgs {
			if s.Done() {
				done(i, trial{rec: backend.EvalRecord{Config: c, Skipped: true}, pos: s.position()})
				continue
			}
			done(i, s.evalOne(c, backend.EvalSpec{Cap: spec.Cap, Fidelity: spec.Fidelity}))
		}
		return
	}
	// Capture the stream position before dispatch: entry i runs at
	// evaluation index base+i (batch evaluators reserve the whole index
	// block up front, and cancellation only ever skips a suffix), and
	// each evaluated entry charges min(Raw, Seconds) — for completed
	// runs Seconds is already the capped duration, for failed ones it
	// is the global cap, so this reproduces the evaluator's commit
	// arithmetic bit-for-bit.
	pos := s.position()
	recs := be.EvaluateSpecCtx(s.req.Ctx, cfgs, backend.EvalSpec{
		Cap:      spec.Cap,
		Fidelity: s.effectiveFidelity(spec.Fidelity),
		Workers:  spec.Workers,
	})
	for i, rec := range recs {
		t := trial{rec: rec}
		if !rec.Skipped {
			pos.evals++
			pos.cost += math.Min(rec.Raw, rec.Seconds)
			t.commit = true
			if rec.Transient {
				t.transient = 1
			}
		}
		t.pos = pos
		done(i, t)
	}
}

// evalOne runs one trial under the spec. Transient failures are
// retried with exponential backoff up to the policy's bound — the
// retried attempts inflate the objective's evaluation and cost
// counters (a real cluster charged for them too) but the trial enters
// the trace once, with its final outcome.
func (s *Session) evalOne(c conf.Config, spec backend.EvalSpec) trial {
	cap := s.effectiveCap(spec.Cap)
	fid := s.effectiveFidelity(spec.Fidelity)
	var t trial
	t.rec = s.obj.EvaluateSpec(c, backend.EvalSpec{Cap: cap, Fidelity: fid})
	if t.rec.Transient {
		t.transient++
	}
	backoff := retryBackoffBase
	aborted := false // retry loop cut short by cancellation
	for attempt := 0; t.rec.Transient && attempt < s.req.Retry.MaxRetries; attempt++ {
		if s.Done() {
			aborted = true
			break
		}
		t.retries++
		t.backoff += backoff
		backoff *= retryBackoffFactor
		t.rec = s.obj.EvaluateSpec(c, backend.EvalSpec{Cap: cap, Fidelity: fid})
		if t.rec.Transient {
			t.transient++
		}
	}
	// A trial whose retry loop was abandoned by cancellation is not
	// committed: an uninterrupted run would have kept retrying, so its
	// journaled outcome could differ. Resume re-runs the whole trial
	// from the restored stream position instead, reproducing the
	// uninterrupted retry sequence bit-identically.
	t.pos, t.commit = s.position(), !aborted
	return t
}

// account applies one final observation to the tracker, the failure
// ledger and the stream position.
func (s *Session) account(c conf.Config, t trial) {
	s.spent = t.pos
	s.stats.Transient += t.transient
	s.stats.Retries += t.retries
	s.stats.BackoffSeconds += t.backoff
	if t.rec.Skipped {
		s.stats.Skipped++
		return
	}
	s.tr.observe(c, t.rec)
	if t.rec.Completed {
		return
	}
	s.stats.Failed++
	if t.rec.OOM {
		s.stats.OOM++
	}
	if t.rec.Infeasible {
		s.stats.Infeasible++
	}
}

// SetPhase stamps the campaign phase on subsequently journaled
// evaluations (and validates it during replay). No-op without a
// journal.
func (s *Session) SetPhase(phase string) {
	if j := s.req.Journal; j != nil {
		j.SetPhase(phase)
	}
}

// Trials returns the number of observations recorded in the session's
// trace so far (replayed and live; skips are not trials).
func (s *Session) Trials() int { return len(s.tr.trace) }

// Spent returns the evaluations charged and the search cost spent so
// far: the objective's counters, or the observation-counted ones on an
// externally driven session.
func (s *Session) Spent() (evals int, cost float64) {
	if s.obj != nil {
		return s.obj.Evals(), s.obj.SearchCost()
	}
	return s.spent.evals, s.spent.cost
}

// Best returns the incumbent so far: the best full-fidelity
// completion over every observation.
func (s *Session) Best() (conf.Config, float64, bool) {
	return s.tr.best, s.tr.bestSec, s.tr.found
}

// Stats returns the failure ledger accumulated so far.
func (s *Session) Stats() FailureStats { return s.stats }

// Cancelled reports whether the session's context was cancelled.
func (s *Session) Cancelled() bool { return s.req.Ctx.Err() != nil }

// Result assembles the session's generic outcome: the incumbent
// (Found=false only when nothing completed), the trace, the spend
// counters, the failure ledger and the cancellation flag.
func (s *Session) Result() Result {
	r := s.tr.result()
	r.Evals, r.SearchCost = s.Spent()
	r.Failures = s.stats
	r.Cancelled = s.Cancelled()
	return r
}
