package tuners

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
)

// Proposal is one trial a stepper asks its driver to run: the
// configuration plus the stopping cap the tuner chose for it (0 means
// no tuner-side cap; a session deadline still applies when the driver
// is a Session) and the fidelity the trial should run at (the zero
// value is the full workload; multi-fidelity steppers like BOHB
// propose cheap proxy runs on the lower rungs of their ladder).
type Proposal struct {
	Config   conf.Config
	Cap      float64
	Fidelity backend.Fidelity
}

// Stepper is the inverted (ask/tell) tuner protocol: instead of a
// blocking loop that calls the objective, a stepper emits the trials
// it wants evaluated and is fed the outcomes. Every tuner in this
// repository is implemented as a stepper; Drive runs one under a
// Session (the in-process driver), and external systems can drive one
// directly against a real cluster without any Objective at all.
//
// Protocol:
//
//   - Propose(n) returns up to n trials to evaluate next (n <= 0
//     means "as many as the stepper can usefully emit"). An empty
//     return with no outstanding observations means the stepper has
//     nothing further; an empty return *with* outstanding
//     observations means it is waiting for them (sequential phases
//     propose one trial at a time).
//   - Observe(c, rec) feeds back the outcome of a proposed trial.
//     Observations of distinct trials may arrive in any order, but
//     every observation must match a pending proposal: observing a
//     configuration that was never proposed (or already observed)
//     panics rather than corrupting tuner state.
//   - Done() reports that the stepper will never propose again.
//     Calling Propose after Done panics.
//   - Inflight() returns the stepper's Protocol, which records every
//     proposal until it is observed. Steppers implement it by
//     embedding Protocol; the session kernel matches observations
//     against it.
type Stepper interface {
	Propose(n int) []Proposal
	Observe(c conf.Config, rec backend.EvalRecord)
	Done() bool
	Inflight() *Protocol
}

// Batcher is the optional stepper capability for concurrent
// evaluation: EvalParallel returns the worker count the driver should
// use when a multi-trial proposal batch has no per-trial caps.
type Batcher interface {
	EvalParallel() int
}

// Finisher is the optional stepper capability for end-of-session
// bookkeeping (ROBOTune's memoization): the session calls Finish
// exactly once, when it seals — whether the stepper completed, the
// driver stopped early or the session was cancelled.
type Finisher interface {
	Finish(s *Session)
}

// ResultMaker is the optional stepper capability for tuners whose
// Result carries more than the session's generic view (ROBOTune's
// selection accounting and trace). Without it, the sealed result is
// s.Result().
type ResultMaker interface {
	SessionResult(s *Session) Result
}

// Protocol is the embeddable bookkeeping of a stepper's trials in
// flight, and the one place an observation is matched to the proposal
// it answers: every stepper embeds it (and so implements
// Stepper.Inflight), and the session kernel asks it whether an
// observation is pending instead of keeping a second list. Misuse
// fails loudly instead of corrupting state: a stepper driven bare
// panics on an observation that matches nothing.
type Protocol struct {
	pending []pendingTrial // oldest first
	next    int
}

type pendingTrial struct {
	seq int
	Proposal
}

// Inflight returns p itself; embedding Protocol is how a stepper
// implements Stepper.Inflight.
func (p *Protocol) Inflight() *Protocol { return p }

// CheckPropose panics when Propose is called on a finished stepper —
// each stepper calls it at the top of Propose with its own Done().
func (p *Protocol) CheckPropose(done bool) {
	if done {
		panic("tuners: Propose called after Done")
	}
}

// Proposed registers a batch of outgoing proposals and returns the
// sequence number assigned to the first (the rest follow
// consecutively).
func (p *Protocol) Proposed(ps []Proposal) int {
	first := p.next
	for _, pr := range ps {
		p.pending = append(p.pending, pendingTrial{seq: p.next, Proposal: pr})
		p.next++
	}
	return first
}

// Observed consumes the earliest pending proposal matching c and
// returns its sequence number. It panics when no pending proposal
// matches — an Observe without a Propose, or a double Observe of the
// same trial.
func (p *Protocol) Observed(c conf.Config) int {
	i := p.match(c)
	if i < 0 {
		panic(fmt.Sprintf("tuners: Observe without a matching Propose (or double Observe): %v", c.ToMap()))
	}
	seq := p.pending[i].seq
	p.pending = slices.Delete(p.pending, i, i+1)
	return seq
}

// Outstanding returns the number of proposed-but-unobserved trials.
func (p *Protocol) Outstanding() int { return len(p.pending) }

// proposals returns the proposed-but-unobserved trials, oldest first.
func (p *Protocol) proposals() []Proposal {
	out := make([]Proposal, len(p.pending))
	for i, pt := range p.pending {
		out[i] = pt.Proposal
	}
	return out
}

// match returns the index of the earliest pending proposal of c, or
// -1. Configurations of one space compare raw value by raw value;
// across spaces, by parameter name.
func (p *Protocol) match(c conf.Config) int {
	for i, pt := range p.pending {
		if pt.Config.Equal(c) || pt.Config.Space() != c.Space() && sameValues(pt.Config.ToMap(), c) {
			return i
		}
	}
	return -1
}

// sameValues reports whether a config map matches a live config
// exactly, by parameter name. JSON round-trips float64 bit-exactly (Go
// marshals the shortest representation that parses back to the same
// value), so exact comparison is the correct test, not an epsilon.
func sameValues(m map[string]float64, c conf.Config) bool {
	cm := c.ToMap()
	if len(m) != len(cm) {
		return false
	}
	for k, v := range cm {
		jv, ok := m[k]
		if !ok || jv != v {
			return false
		}
	}
	return true
}

// Wave is the bookkeeping of a batch that a stepper hands out in
// chunks and acts on once every trial in it has been observed: a
// BestConfig round, a Gunther or CMA-ES generation, a successive-halving
// or BOHB rung, ROBOTune's selection sweep. Observations may arrive in
// any order; Observed maps each back to its index in the batch.
type Wave struct {
	n, next, seen int
	slot          map[int]int // proposal sequence → batch index
}

// Start opens a wave of n trials.
func (w *Wave) Start(n int) {
	w.n, w.next, w.seen = n, 0, 0
	if w.slot == nil {
		w.slot = make(map[int]int)
	}
}

// Propose hands out up to n (n <= 0: all) of the trials not yet
// handed out, building trial i with at, and registers them with p. It
// returns nil once the whole wave has been handed out.
func (w *Wave) Propose(p *Protocol, n int, at func(i int) Proposal) []Proposal {
	k := w.Left()
	if n > 0 && n < k {
		k = n
	}
	if k == 0 {
		return nil
	}
	props := make([]Proposal, k)
	for i := range props {
		props[i] = at(w.next + i)
	}
	first := p.Proposed(props)
	for i := range props {
		w.slot[first+i] = w.next + i
	}
	w.next += k
	return props
}

// Observed maps the sequence number Protocol.Observed returned for a
// trial of this wave to the trial's index, and reports whether that
// observation completed the wave.
func (w *Wave) Observed(seq int) (i int, complete bool) {
	i = w.slot[seq]
	delete(w.slot, seq)
	w.seen++
	return i, w.Complete()
}

// Left returns the number of trials not yet handed out.
func (w *Wave) Left() int { return w.n - w.next }

// Complete reports whether every trial has been handed out and
// observed; a wave never started is complete.
func (w *Wave) Complete() bool { return w.seen == w.n }

// ErrNotPending rejects an observation that matches no pending
// proposal: never proposed, already observed, or handed out before a
// restart that lost it.
var ErrNotPending = errors.New("tuners: no pending proposal matches the observed config")

// ErrSealed rejects an observation into a sealed session.
var ErrSealed = errors.New("tuners: session is sealed")

// Start binds the stepper the session drives and replays the recovered
// journal through it. It returns the proposals replay regenerated that
// no journaled observation answered — their original handout died with
// the previous run, so the driver serves them before asking for new
// ones. A journal whose done record outlives the stepper's own
// progress (the driver finished the session early) comes back sealed,
// with the recorded result and nothing outstanding. Call Start once,
// before Propose and Observe.
func (s *Session) Start(st Stepper) []Proposal {
	s.st = st
	s.replay()
	if j := s.req.Journal; j != nil {
		if d, ok := j.Done(); ok && (st.Inflight().Outstanding() > 0 || !st.Done()) {
			s.sealFromDone(d)
			return nil
		}
	}
	left := st.Inflight().proposals()
	s.settle()
	return left
}

// Propose asks the stepper for up to n trials (n <= 0: as many as it
// can usefully emit); the stepper's Protocol holds them until they are
// observed. A sealed session or a finished stepper proposes nothing.
func (s *Session) Propose(n int) []Proposal {
	if s.sealed || s.st.Done() {
		return nil
	}
	return s.st.Propose(n)
}

// Observe feeds back the outcome of a pending proposal evaluated
// outside the session (a remote client): the observation is tracked
// and committed to the journal before the stepper acts on it, and the
// session seals once the stepper is done with nothing outstanding. It
// returns ErrSealed or ErrNotPending, changing nothing, when the
// observation cannot be applied.
func (s *Session) Observe(c conf.Config, rec backend.EvalRecord) error {
	t := trial{rec: rec, pos: s.spent, commit: true}
	switch {
	case s.obj != nil:
		t.pos = s.position()
	case !rec.Skipped:
		t.pos = streamPos{t.pos.evals + 1, t.pos.cost + math.Min(rec.Raw, rec.Seconds)}
	}
	if rec.Transient {
		t.transient = 1
	}
	return s.observe(c, t)
}

func (s *Session) observe(c conf.Config, t trial) error {
	if !s.Pending(c) {
		if s.sealed {
			return ErrSealed
		}
		return ErrNotPending
	}
	s.account(c, t)
	if j := s.req.Journal; j != nil && t.commit {
		// Append failures are sticky in the journal but deliberately
		// non-fatal here: a full disk degrades durability, it does not
		// kill the campaign.
		_ = j.Append(entryOf(c, t.rec, t.pos, s.stats))
	}
	s.st.Observe(c, t.rec)
	s.settle()
	return nil
}

// Pending reports whether c matches a pending proposal of an unsealed
// session.
func (s *Session) Pending(c conf.Config) bool {
	return !s.sealed && s.st.Inflight().match(c) >= 0
}

// Outstanding returns the number of proposed-but-unobserved trials; a
// sealed session has none.
func (s *Session) Outstanding() int {
	if s.sealed {
		return 0
	}
	return s.st.Inflight().Outstanding()
}

// Sealed reports whether the session has sealed its result.
func (s *Session) Sealed() bool { return s.sealed }

// settle runs after every observation: the session seals once its
// stepper is done with nothing outstanding.
func (s *Session) settle() {
	if s.sealed || !s.st.Done() || s.Outstanding() > 0 {
		return
	}
	s.seal()
}

// Seal ends the session — early, when the driver decides to stop —
// and returns its result; sealing twice returns the same result.
func (s *Session) Seal() Result {
	if !s.sealed {
		s.seal()
	}
	return s.result
}

// seal runs the stepper's end-of-session bookkeeping (Finisher),
// assembles the result and records it in the journal's done record. A
// stepper's own Result (ResultMaker) splits the spend by phase against
// the objective's counters; without an objective the session's view
// stands and only the stepper's parameter selection is carried over.
func (s *Session) seal() {
	s.sealed = true
	if f, ok := s.st.(Finisher); ok {
		f.Finish(s)
	}
	res := s.Result()
	if rm, ok := s.st.(ResultMaker); ok {
		own := rm.SessionResult(s)
		if s.obj != nil {
			res = own
		} else {
			res.SelectedParams = own.SelectedParams
		}
	}
	s.result = res
	appendDone(s.req.Journal, res)
}

// sealFromDone seals a resumed session from its journal's done
// record, which is authoritative over whatever the replayed stepper
// would conclude.
func (s *Session) sealFromDone(d journal.DoneEntry) {
	s.sealed = true
	res := s.Result()
	res.Found, res.Evals, res.SearchCost = d.Found, d.Evals, d.SearchCost
	res.SelectionEvals, res.SelectionCost = d.SelectionEvals, d.SelectionCost
	if c, err := s.space.FromRaw(d.Best); d.Found && err == nil {
		res.Best, res.BestSeconds = c, d.BestSeconds
	}
	s.result = res
}

// Drive runs a stepper to completion under a session — the in-process
// driver of the kernel: Propose, evaluate through Eval, Observe. The
// session owns everything else (journal commit and replay, retries,
// deadlines, the ledger and the done record). Proposal
// batches sharing one cap and one fidelity go through the session's
// concurrent batch path when the stepper asks for parallelism;
// everything else is evaluated sequentially with a cancellation check
// per trial.
//
// Drive observes only trials the session itself proposed, so the
// observation errors (ErrSealed, ErrNotPending) cannot occur here.
func Drive(st Stepper, s *Session) Result {
	props := s.Start(st)
	for !s.Done() {
		if len(props) == 0 {
			if props = s.Propose(0); len(props) == 0 {
				break
			}
		}
		par := 1
		if b, ok := st.(Batcher); ok {
			par = b.EvalParallel()
		}
		if par > 1 && len(props) > 1 && sameCap(props) && sameFidelity(props) {
			cfgs := make([]conf.Config, len(props))
			for i, p := range props {
				cfgs[i] = p.Config
			}
			spec := backend.EvalSpec{Cap: props[0].Cap, Fidelity: props[0].Fidelity, Workers: par}
			s.eval(spec, cfgs, func(i int, t trial) { _ = s.observe(cfgs[i], t) })
		} else {
			for _, p := range props {
				if s.Done() {
					break
				}
				_ = s.observe(p.Config, s.evalOne(p.Config, backend.EvalSpec{Cap: p.Cap, Fidelity: p.Fidelity}))
			}
		}
		props = nil
	}
	return s.Seal()
}

// sameCap reports whether every proposal carries one stopping cap — a
// uniform wave (capped or not) can run under a single batch EvalSpec.
func sameCap(props []Proposal) bool {
	for _, p := range props[1:] {
		if p.Cap != props[0].Cap {
			return false
		}
	}
	return true
}

// sameFidelity reports whether every proposal runs at one fidelity —
// the batch path evaluates a whole wave under a single EvalSpec, so
// mixed-fidelity waves fall back to the sequential loop.
func sameFidelity(props []Proposal) bool {
	for _, p := range props[1:] {
		if p.Fidelity != props[0].Fidelity {
			return false
		}
	}
	return true
}

// appendDone records the session outcome in the journal. A cancelled
// session deliberately leaves no done marker so its journal stays
// resumable; a finished one records its result, and replaying the
// whole journal reproduces it without spending a single new
// evaluation.
func appendDone(jn *journal.Journal, res Result) {
	if jn == nil || res.Cancelled {
		return
	}
	done := journal.DoneEntry{
		Found:          res.Found,
		Evals:          res.Evals,
		SearchCost:     res.SearchCost,
		SelectionEvals: res.SelectionEvals,
		SelectionCost:  res.SelectionCost,
	}
	if res.Found {
		// BestSeconds is +Inf when nothing completed, which JSON cannot
		// encode; record it only for a found result.
		done.Best = res.Best.ToMap()
		done.BestSeconds = res.BestSeconds
	}
	_ = jn.AppendDone(done)
}
