package tuners

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/journal"
)

// Counts converts the ledger to the journal's dependency-free mirror
// (journal deliberately does not import tuners).
func (s FailureStats) Counts() journal.FailureCounts {
	return journal.FailureCounts{
		Failed:         s.Failed,
		Transient:      s.Transient,
		Retries:        s.Retries,
		OOM:            s.OOM,
		Infeasible:     s.Infeasible,
		BackoffSeconds: s.BackoffSeconds,
		Skipped:        s.Skipped,
	}
}

// entryOf is the one encoder of an observation into a journal entry:
// the trial's outcome, the objective's stream position after it and
// the failure ledger after it.
func entryOf(c conf.Config, rec backend.EvalRecord, pos streamPos, stats FailureStats) journal.EvalEntry {
	return journal.EvalEntry{
		Config:        c.ToMap(),
		Seconds:       rec.Seconds,
		Raw:           rec.Raw,
		Completed:     rec.Completed,
		OOM:           rec.OOM,
		Infeasible:    rec.Infeasible,
		Transient:     rec.Transient,
		Skipped:       rec.Skipped,
		FidelityInput: rec.Fidelity.InputScale,
		FidelityStage: rec.Fidelity.StageFrac,
		ObjEvals:      pos.evals,
		ObjCost:       pos.cost,
		Stats:         stats.Counts(),
	}
}

// recordOf is the one decoder, the inverse of entryOf for the
// configuration c the entry's raw values decode to.
func recordOf(e journal.EvalEntry, c conf.Config) backend.EvalRecord {
	return backend.EvalRecord{
		Config:     c,
		Seconds:    e.Seconds,
		Raw:        e.Raw,
		Completed:  e.Completed,
		OOM:        e.OOM,
		Infeasible: e.Infeasible,
		Transient:  e.Transient,
		Skipped:    e.Skipped,
		Fidelity:   backend.Fidelity{InputScale: e.FidelityInput, StageFrac: e.FidelityStage},
	}
}

// replayEntry applies one journaled observation in place of a live
// one: it restores the objective's stream position, accounts the
// outcome, and restores the ledger counts no record carries — the
// transient attempts, retries and backoff of the trial. The outcome
// counts (failed, OOM, infeasible, skipped) are re-derived from the
// records, so they never depend on when a journal writer stamped them.
func (s *Session) replayEntry(e journal.EvalEntry, c conf.Config, rec backend.EvalRecord) {
	if sr, ok := s.obj.(backend.StreamRestorer); ok {
		sr.RestoreStream(e.ObjEvals, e.ObjCost)
	}
	s.account(c, trial{rec: rec, pos: streamPos{e.ObjEvals, e.ObjCost}})
	s.stats.Transient = e.Stats.Transient
	s.stats.Retries = e.Stats.Retries
	s.stats.BackoffSeconds = e.Stats.BackoffSeconds
}

// replay feeds the recovered journal through the bound stepper — the
// one resume path of both drivers. For each journaled entry, the
// stepper proposes until the entry's configuration is pending
// (steppers propose deterministically, so the regenerated stream
// matches the original; the entry may match any pending proposal,
// because a remote driver observes a batch in any order), and the
// recorded outcome is then observed without touching the objective.
// A divergence — invalid config, a stepper that never re-proposes it,
// a phase or fidelity mismatch — aborts replay, truncating the stale
// tail, and the session continues live from there.
func (s *Session) replay() {
	j := s.req.Journal
	if j == nil {
		return
	}
	for {
		e, ok := j.PeekReplay()
		if !ok {
			return
		}
		c, err := s.space.FromRaw(e.Config)
		if err != nil {
			j.AbortReplay(fmt.Sprintf("trial %d: journaled config invalid for the session space: %v", e.Trial, err))
			return
		}
		p, why := s.proposeUntilPending(c)
		if why != "" {
			j.AbortReplay(fmt.Sprintf("trial %d: %s", e.Trial, why))
			return
		}
		if e.Phase != j.Phase() {
			j.AbortReplay(fmt.Sprintf("trial %d: journal phase %q, session phase %q", e.Trial, e.Phase, j.Phase()))
			return
		}
		rec := recordOf(e, c)
		// A journaled proxy observation must never replay as a
		// full-fidelity one (or vice versa, or at a different rung): a
		// ladder change between runs invalidates the stale tail. Only an
		// objective-backed session knows what fidelity it would run; a
		// remote client reports its own.
		if want := s.effectiveFidelity(p.Fidelity); s.obj != nil &&
			rec.Fidelity != want && !(rec.Fidelity.Full() && want.Full()) {
			j.AbortReplay(fmt.Sprintf("trial %d: journaled fidelity %s, session fidelity %s", e.Trial, rec.Fidelity, want))
			return
		}
		j.NextReplay()
		s.replayEntry(e, c, rec)
		s.st.Observe(c, rec)
	}
}

// proposeUntilPending returns the earliest pending proposal of c,
// drawing single proposals from the stepper (and, when it runs dry
// with nothing outstanding, campaign grants — exactly where the live
// run drew them) until one matches. It returns the reason instead when
// the stepper cannot produce c.
func (s *Session) proposeUntilPending(c conf.Config) (Proposal, string) {
	fl := s.st.Inflight()
	for {
		if i := fl.match(c); i >= 0 {
			return fl.pending[i].Proposal, ""
		}
		if s.st.Done() && (fl.Outstanding() > 0 || !s.tryExtend()) {
			return Proposal{}, "stepper never re-proposed the journaled config"
		}
		if len(s.st.Propose(1)) == 0 {
			return Proposal{}, "stepper stopped proposing before the journaled config"
		}
	}
}
