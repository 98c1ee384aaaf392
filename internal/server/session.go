package server

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/conf"
	"repro/internal/journal"
	"repro/internal/schedule"
	"repro/internal/tuners"
)

// session is one hosted tuning session: the ask/tell kernel
// (tuners.Session, which owns the stepper's pending proposals, the
// journal, the incumbent, the failure ledger and the done record) plus
// what only the wire needs — the unclaimed handout after a restart,
// HTTP error mapping, the observation cap and the compute-pool gate
// around Propose. All fields below mu are guarded by it; lastTouch is
// atomic so the eviction janitor can scan without taking session
// locks.
type session struct {
	id     string
	tenant string
	spec   SessionSpec
	space  *conf.Space

	created   int64
	lastTouch atomic.Int64
	// maxObs caps the applied observation history (Options
	// .MaxObservations); 0 = unlimited.
	maxObs int

	mu sync.Mutex
	k  *tuners.Session
	st tuners.Stepper   // the kernel's stepper, sampled by /metrics
	jn *journal.Journal // nil on an ephemeral server, or once closed

	// pool gates the stepper's propose computation when the server runs
	// with a bounded compute pool (nil = ungated); class is the spec's
	// slot priority.
	pool  *schedule.Pool
	class schedule.Class

	// unclaimed holds proposals regenerated during journal replay that
	// no live client has received yet (their original handout died with
	// the previous process). They are served before new stepper
	// proposals so a reattaching client picks up exactly where the
	// crashed conversation stopped.
	unclaimed []tuners.Proposal

	resumed  bool
	evicted  bool
	poisoned error
}

// apiErr is an error with an HTTP mapping.
type apiErr struct {
	status  int
	code    string
	message string
}

func (e *apiErr) Error() string { return e.message }

func errBadRequest(format string, args ...any) *apiErr {
	return &apiErr{status: 400, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

func errConflict(format string, args ...any) *apiErr {
	return &apiErr{status: 409, code: "conflict", message: fmt.Sprintf(format, args...)}
}

func errNotFound(format string, args ...any) *apiErr {
	return &apiErr{status: 404, code: "not_found", message: fmt.Sprintf(format, args...)}
}

func errThrottled(format string, args ...any) *apiErr {
	return &apiErr{status: 429, code: "throttled", message: fmt.Sprintf(format, args...)}
}

func errInternal(format string, args ...any) *apiErr {
	return &apiErr{status: 500, code: "internal", message: fmt.Sprintf(format, args...)}
}

func errGone(format string, args ...any) *apiErr {
	return &apiErr{status: 410, code: "finished", message: fmt.Sprintf(format, args...)}
}

// errDraining is the shutdown signal: the server still serves its
// live sessions but accepts no new ones.
func errDraining(format string, args ...any) *apiErr {
	return &apiErr{status: 503, code: "draining", message: fmt.Sprintf(format, args...)}
}

// errMaxObservations shares the 409 status with errConflict but keeps
// a distinct code so clients can tell "resend/dedupe" (conflict) from
// "this session is full, stop sending" (max_observations).
func errMaxObservations(format string, args ...any) *apiErr {
	return &apiErr{status: 409, code: "max_observations", message: fmt.Sprintf(format, args...)}
}

// journalMeta derives the journal identity from a spec. A rehydration
// whose journal was recorded under different parameters is rejected by
// the journal's own meta validation.
func journalMeta(spec SessionSpec, space *conf.Space) journal.Meta {
	return journal.Meta{
		Seed:      spec.Seed,
		Budget:    spec.Budget,
		Workload:  spec.Workload,
		Dataset:   spec.Dataset,
		Tuner:     spec.Tuner,
		SpaceHash: space.Fingerprint(),
	}
}

// newSession builds (or rebuilds) a session from its validated spec.
// journalPath == "" makes the session ephemeral. When the journal
// already holds records, the kernel replays them through a fresh
// stepper — the bit-identical resume path — and any proposals
// regenerated along the way that the journal never saw observed become
// the unclaimed queue.
func newSession(id, tenant string, ps ParsedSpec, journalPath string, nowUnix int64, maxObs int, pool *schedule.Pool) (*session, error) {
	st, err := cli.BuildStepper(ps.Spec.Tuner, ps.Space, ps.Spec.Budget, ps.Spec.Seed,
		ps.Spec.Workload, ps.Spec.Dataset, ps.Spec.Options.coreOptions())
	if err != nil {
		return nil, err
	}
	s := &session{
		id:      id,
		tenant:  tenant,
		spec:    ps.Spec,
		space:   ps.Space,
		created: nowUnix,
		maxObs:  maxObs,
		st:      st,
		pool:    pool,
		class:   ps.Spec.Class(),
	}
	s.lastTouch.Store(nowUnix)
	if journalPath != "" {
		policy := journal.SyncAlways
		if ps.Spec.Sync == "none" {
			policy = journal.SyncNone
		}
		jn, err := journal.Open(journalPath, journalMeta(ps.Spec, ps.Space), policy)
		if err != nil {
			return nil, err
		}
		s.jn, s.resumed = jn, jn.Resumed()
	}
	s.k = tuners.NewSession(nil, ps.Space, tuners.Request{Budget: ps.Spec.Budget, Seed: ps.Spec.Seed, Journal: s.jn})
	if err := s.guard(true, func() { s.unclaimed = s.k.Start(st) }); err != nil {
		if s.jn != nil {
			_ = s.jn.Close()
		}
		return nil, err
	}
	return s, nil
}

// guard runs a stepper-driving kernel call with panics converted to
// errors. With pooled set, on a server with a bounded compute pool the
// call holds one slot in the session's priority class — Propose (and
// the replay of a rehydration) is where ROBOTune refits its surrogate
// and searches the acquisition, the expensive part of hosting a
// session — so "latency" sessions overtake queued "bulk" refits.
func (s *session) guard(pooled bool, f func()) (err error) {
	if pooled && s.pool != nil {
		s.pool.Acquire(s.class)
		defer s.pool.Release()
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%v", p)
		}
	}()
	f()
	return nil
}

// done reports whether the session will never propose again.
func (s *session) done() bool { return s.k.Sealed() || s.st.Done() }

// propose hands out up to n trials (n <= 0 or > MaxBatch means
// MaxBatch): first the unclaimed queue left behind by a resume, then
// fresh stepper proposals. With reclaim, a session with proposals
// outstanding hands out those instead, oldest first: they are what a
// response lost in transit carried, and a client that had received it
// would observe them before asking for more. Both the propose and the
// observe handler call it.
func (s *session) propose(n int, reclaim bool) (ProposeResponse, *apiErr) {
	if s.poisoned != nil {
		return ProposeResponse{}, errInternal("session is poisoned: %v", s.poisoned)
	}
	want := n
	if want <= 0 || want > MaxBatch {
		want = MaxBatch
	}
	out := make([]WireProposal, 0, min(want, 16))
	if reclaim && s.k.Outstanding() > 0 {
		pending := s.k.Unobserved()
		for _, p := range pending[:min(want, len(pending))] {
			out = append(out, wireProposal(p))
			s.claim(p.Config)
		}
	} else {
		for len(s.unclaimed) > 0 && len(out) < want {
			out = append(out, wireProposal(s.unclaimed[0]))
			s.unclaimed = s.unclaimed[1:]
		}
		if len(out) < want {
			var props []tuners.Proposal
			if err := s.guard(true, func() { props = s.k.Propose(want - len(out)) }); err != nil {
				return ProposeResponse{}, errConflict("propose: %v", err)
			}
			for _, p := range props {
				out = append(out, wireProposal(p))
			}
		}
	}
	return ProposeResponse{
		Proposals:   out,
		Done:        s.done(),
		Outstanding: s.k.Outstanding(),
	}, nil
}

// wireProposal maps an in-process proposal onto its wire form,
// including the fidelity the client must evaluate (and echo back) at.
func wireProposal(p tuners.Proposal) WireProposal {
	return WireProposal{
		Config:        p.Config.ToMap(),
		Cap:           p.Cap,
		FidelityInput: p.Fidelity.InputScale,
		FidelityStage: p.Fidelity.StageFrac,
	}
}

// observe applies one client-reported outcome: it must match a
// pending proposal (409 otherwise); the kernel commits it to the
// journal before the stepper acts on it.
func (s *session) observe(o Observation) *apiErr {
	if s.poisoned != nil {
		return errInternal("session is poisoned: %v", s.poisoned)
	}
	if s.k.Sealed() {
		return errGone("session already finished")
	}
	cfg, err := s.space.FromRaw(o.Config)
	if err != nil {
		return errBadRequest("%v", err)
	}
	if !s.k.Pending(cfg) {
		return errConflict("no matching pending proposal for the observed config (never proposed, already observed, or lost to a restart)")
	}
	rec := backend.EvalRecord{
		Config:     cfg,
		Seconds:    o.Seconds,
		Raw:        o.Raw,
		Completed:  o.Completed,
		OOM:        o.OOM,
		Infeasible: o.Infeasible,
		Transient:  o.Transient,
		Skipped:    o.Skipped,
		Fidelity:   backend.Fidelity{InputScale: o.FidelityInput, StageFrac: o.FidelityStage},
	}
	// The cap counts evaluated (non-skipped) observations — the ones
	// that grow the surrogate and the replayable history. Skips stay
	// exempt so a client at the cap can still resolve its outstanding
	// proposals before finishing. Checked before the kernel commits, so
	// a rejected observation leaves no state anywhere.
	if evals, _ := s.k.Spent(); s.maxObs > 0 && !rec.Skipped && evals >= s.maxObs {
		return errMaxObservations("session at its %d-observation cap; skip outstanding proposals and finish the session (DELETE)", s.maxObs)
	}
	var oerr error
	if err := s.guard(false, func() { oerr = s.k.Observe(cfg, rec) }); err != nil || oerr != nil {
		// Cannot happen after the pending precheck; if it does, the
		// journal and stepper disagree — stop serving rather than let
		// them drift further apart.
		s.poisoned = errors.Join(err, oerr)
		return errInternal("stepper rejected a prechecked observation: %v", s.poisoned)
	}
	// An observation may race ahead of the client re-claiming its
	// proposal.
	s.claim(cfg)
	return nil
}

// claim takes the earliest proposal of cfg off the unclaimed queue, if
// it is there.
func (s *session) claim(cfg conf.Config) {
	for i, u := range s.unclaimed {
		if u.Config.Equal(cfg) {
			s.unclaimed = slices.Delete(s.unclaimed, i, i+1)
			return
		}
	}
}

// finish seals the session (even mid-campaign — the client owns the
// decision to stop early) and closes the journal.
func (s *session) finish() (ResultResponse, *apiErr) {
	if s.poisoned != nil {
		return ResultResponse{}, errInternal("session is poisoned: %v", s.poisoned)
	}
	var res tuners.Result
	if err := s.guard(false, func() { res = s.k.Seal() }); err != nil {
		return ResultResponse{}, errInternal("seal: %v", err)
	}
	s.unclaimed = nil
	s.suspend()
	r := ResultResponse{
		ID:             s.id,
		Found:          res.Found,
		Trials:         len(res.Trace),
		Evals:          res.Evals,
		Cost:           res.SearchCost,
		SelectedParams: res.SelectedParams,
	}
	if res.Found {
		r.Best = res.Best.ToMap()
		r.BestSeconds = res.BestSeconds
	}
	return r, nil
}

// suspend syncs and closes the journal. Its records are all that
// rehydration needs, so an evicted or shut-down session is rebuilt
// from disk on the next touch. Called by finish, by the eviction
// janitor and by server shutdown.
func (s *session) suspend() {
	if s.jn != nil {
		_ = s.jn.Close()
		s.jn = nil
	}
}

// status reports the session's current state. traceTail <= 0 returns
// the full trace.
func (s *session) status(traceTail int) StatusResponse {
	res := s.k.Result()
	st := StatusResponse{
		ID:            s.id,
		Tuner:         s.spec.Tuner,
		Tenant:        s.tenant,
		Workload:      s.spec.Workload,
		Dataset:       s.spec.Dataset,
		Budget:        s.spec.Budget,
		Seed:          s.spec.Seed,
		Done:          s.done(),
		Found:         res.Found,
		Trials:        len(res.Trace),
		Outstanding:   s.k.Outstanding(),
		Unclaimed:     len(s.unclaimed),
		Evals:         res.Evals,
		Cost:          res.SearchCost,
		Failed:        res.Failures.Failed,
		Resumed:       s.resumed,
		CreatedUnix:   s.created,
		LastTouchUnix: s.lastTouch.Load(),
	}
	if s.jn != nil {
		st.Diverged = s.jn.Diverged()
	}
	if res.Found {
		st.Best = res.Best.ToMap()
		st.BestSeconds = res.BestSeconds
	}
	start := 0
	if traceTail > 0 && len(res.Trace) > traceTail {
		start = len(res.Trace) - traceTail
	}
	st.Trace = res.Trace[start:]
	st.Completed = res.Completed[start:]
	st.TraceProxy = res.Proxy[start:]
	st.TraceStart = start
	return st
}
