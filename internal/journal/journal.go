// Package journal implements a crash-safe write-ahead journal for
// tuning sessions. Evaluations are the costliest artifact a campaign
// produces — the paper spends its whole budget on a few dozen cluster
// runs — so losing a half-finished session to a process crash, OOM
// kill or node preemption throws away hours of paid-for work.
//
// The journal provides three guarantees:
//
//   - Durability: every completed evaluation (configuration, observed
//     cost, failure/censoring status, objective stream position,
//     failure-ledger state) is appended as a length-prefixed,
//     CRC32-checksummed record, fsynced per the configured policy,
//     before the tuner acts on it.
//   - Atomicity: each record is framed and appended in one write, so
//     a torn append stays contiguous at the tail. Whole files (the
//     memoization store, mapping signatures, robotuned session specs,
//     robotune -trace exports) are replaced by WriteFile (temp file,
//     fsync, rename, directory fsync): readers see the old file or the
//     new one, never a mix.
//   - Recoverability: opening an existing journal replays its records.
//     A torn tail record (the process died mid-append) is truncated,
//     losing at most the in-flight evaluation and never a committed
//     one. Recovery never panics on corrupt input.
//
// Resume is replay-based: the tuner re-executes its deterministic
// decision path, and the session substitutes journaled records for the
// first k evaluations instead of re-running them. Because every
// random-number stream in the tuner is derived from the seed (PR 1's
// SplitMix64 splitting) and the objective's noise streams are indexed
// by the evaluation counter — whose position each record persists —
// the resumed campaign is bit-identical to an uninterrupted one.
//
// The journal is also the session's one per-trial log: when a session
// ends, robotune -trace reopens its journal and exports the trials
// (see NextReplay) with the result summary as one JSON file.
//
// The campaign ledger (Ledger) sits on the same record log as the
// journal: a magic header, a meta record compared byte for byte on
// open, then CRC-framed records.
//
// The package is dependency-free (standard library only); the tuners
// and core packages adapt their own types to the record schema here.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
)

// magic identifies a journal file; it doubles as the format version
// (bump the trailing digit on incompatible changes).
var magic = []byte("ROBOJNL1")

// Meta identifies the session a journal belongs to. Resume validates
// that the journal's meta record matches this one byte for byte before
// replaying: a journal recorded under a different seed, budget,
// workload or fault plan must not silently steer a new session.
type Meta struct {
	Seed      uint64  `json:"seed"`
	Budget    int     `json:"budget"`
	Workload  string  `json:"workload"`
	Dataset   string  `json:"dataset"`
	Tuner     string  `json:"tuner"`
	Cap       float64 `json:"cap,omitempty"`
	Deadline  float64 `json:"deadline,omitempty"`
	Retries   int     `json:"retries,omitempty"`
	Faults    string  `json:"faults,omitempty"`
	SpaceHash string  `json:"space_hash,omitempty"`
}

// FailureCounts mirrors the session failure ledger
// (tuners.FailureStats) without importing it, keeping this package
// dependency-free.
type FailureCounts struct {
	Failed         int     `json:"failed,omitempty"`
	Transient      int     `json:"transient,omitempty"`
	Retries        int     `json:"retries,omitempty"`
	OOM            int     `json:"oom,omitempty"`
	Infeasible     int     `json:"infeasible,omitempty"`
	BackoffSeconds float64 `json:"backoff_seconds,omitempty"`
	Skipped        int     `json:"skipped,omitempty"`
}

// EvalEntry is one committed evaluation: the trial's configuration and
// outcome, plus the two pieces of state a bit-identical resume needs —
// the objective's stream position (evaluation counter and accumulated
// cost, which seed the per-run noise and fault streams) and the
// session's cumulative failure ledger after the trial.
type EvalEntry struct {
	// Phase names the campaign phase that produced the trial (probe,
	// selection, init, bo); replay validates it against the resumed
	// run's phase as a divergence tripwire.
	Phase string `json:"phase"`
	// Trial is the 0-based ordinal of the record in the journal.
	Trial int `json:"trial"`
	// Config holds the evaluated configuration's raw values by
	// parameter name.
	Config map[string]float64 `json:"config"`
	// Seconds, Raw and the outcome flags mirror backend.EvalRecord.
	Seconds    float64 `json:"seconds"`
	Raw        float64 `json:"raw"`
	Completed  bool    `json:"completed"`
	OOM        bool    `json:"oom,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
	Transient  bool    `json:"transient,omitempty"`
	// Skipped marks a trial whose evaluation was abandoned rather than
	// run: it advanced the tuner's protocol state but charged no
	// evaluation. Wire skips (a remote client dropping a proposal) are
	// journaled, so a resumed session replays the abandonment instead of
	// waiting forever for the lost observation. In-process cancellation
	// skips (batch entries never dispatched) are not: the cancelled run
	// ends there, and a resume evaluates those trials live.
	Skipped bool `json:"skipped,omitempty"`
	// FidelityInput and FidelityStage mirror the evaluation's
	// backend.Fidelity (input-scale fraction and stage fraction; 0 =
	// full fidelity, the journal stays dependency-free). Replay
	// validates them against the resumed run's proposal as a
	// divergence tripwire, so a ladder change invalidates the stale
	// tail instead of silently replaying proxy observations as full
	// ones.
	FidelityInput float64 `json:"fidelity_input,omitempty"`
	FidelityStage float64 `json:"fidelity_stage,omitempty"`
	// ObjEvals and ObjCost are the objective's evaluation counter and
	// accumulated search cost after this trial — the SplitMix64-derived
	// noise and fault streams are indexed by the counter, so restoring
	// it (rather than re-deriving it) is what makes a resumed run
	// consume exactly the streams the original would have.
	ObjEvals int     `json:"obj_evals"`
	ObjCost  float64 `json:"obj_cost"`
	// Stats is the session failure ledger after this trial. Replay
	// re-derives the outcome counts (failed, OOM, infeasible, skipped)
	// from the records and restores the attempt counts (transient,
	// retries, backoff) from here.
	Stats FailureCounts `json:"stats"`
}

// DoneEntry marks a session that ran to completion (budget exhausted
// or early-stopped — not cancelled) and summarizes its result.
type DoneEntry struct {
	Best           map[string]float64 `json:"best,omitempty"`
	BestSeconds    float64            `json:"best_seconds"`
	Found          bool               `json:"found"`
	Evals          int                `json:"evals"`
	SearchCost     float64            `json:"search_cost"`
	SelectionEvals int                `json:"selection_evals,omitempty"`
	SelectionCost  float64            `json:"selection_cost,omitempty"`
}

// frame is the on-disk record envelope; exactly one pointer is set.
type frame struct {
	T    string     `json:"t"`
	Meta *Meta      `json:"meta,omitempty"`
	Eval *EvalEntry `json:"eval,omitempty"`
	Done *DoneEntry `json:"done,omitempty"`
}

// Journal is an open session journal. It is safe for use from one
// tuner goroutine (the Session serializes evaluations); the log's mutex
// guards the rare cross-goroutine inspection calls.
type Journal struct {
	recordLog

	// replay is the queue of recovered evaluation records;
	// replayOff[i] is the byte offset of replay[i]'s frame, so
	// aborting replay can truncate the stale tail.
	replay    []EvalEntry
	replayOff []int64
	replayed  int

	trials   int // eval records replayed or appended so far
	phase    string
	done     *DoneEntry
	diverged string // non-empty once replay was aborted
}

// Open opens or creates the journal at path. If the file does not
// exist (or holds no intact meta record), a fresh journal is created
// with the given meta. If it exists, its meta record must match the
// given meta's, its records are recovered — truncating a torn tail —
// and the recovered evaluations become the replay queue.
func Open(path string, meta Meta, policy SyncPolicy) (*Journal, error) {
	j := &Journal{recordLog: recordLog{policy: policy}}
	if err := j.open(path, "journal", "session", magic, frame{T: "meta", Meta: &meta}, j.decode); err != nil {
		return nil, err
	}
	return j, nil
}

// decode takes one recovered record after the meta record: an
// evaluation joins the replay queue, a done record marks the session
// finished.
func (j *Journal) decode(payload []byte, off int64) string {
	var fr frame
	if err := json.Unmarshal(payload, &fr); err != nil {
		return "unparsable record payload"
	}
	switch {
	case fr.T == "eval" && fr.Eval != nil:
		j.replay = append(j.replay, *fr.Eval)
		j.replayOff = append(j.replayOff, off)
	case fr.T == "done" && fr.Done != nil:
		j.done = fr.Done
	default:
		return fmt.Sprintf("unexpected %q record", fr.T)
	}
	return ""
}

// ReplayPending returns how many recovered evaluations have not yet
// been consumed.
func (j *Journal) ReplayPending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.replay) - j.replayed
}

// Trials returns the number of evaluations committed to or replayed
// from the journal so far.
func (j *Journal) Trials() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trials
}

// SetPhase records the campaign phase stamped on subsequent entries
// and validated by replay.
func (j *Journal) SetPhase(p string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.phase = p
}

// Phase returns the current campaign phase.
func (j *Journal) Phase() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.phase
}

// PeekReplay returns the next recovered evaluation without consuming
// it.
func (j *Journal) PeekReplay() (EvalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.replayed >= len(j.replay) {
		return EvalEntry{}, false
	}
	return j.replay[j.replayed], true
}

// NextReplay consumes and returns the next recovered evaluation.
func (j *Journal) NextReplay() (EvalEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.replayed >= len(j.replay) {
		return EvalEntry{}, false
	}
	e := j.replay[j.replayed]
	j.replayed++
	j.trials++
	return e, true
}

// AbortReplay discards the pending replay queue and truncates the
// journal file at the first unconsumed record, so the stale tail is
// not replayed by a future resume. reason is retained for Diverged.
// It is called when the resumed run's decision path no longer matches
// the journal (which a bit-identical tuner never triggers).
func (j *Journal) AbortReplay(reason string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.replayed >= len(j.replay) {
		return nil
	}
	off := j.replayOff[j.replayed]
	j.replay = j.replay[:j.replayed]
	j.replayOff = j.replayOff[:j.replayed]
	j.diverged = reason
	j.done = nil
	return j.truncateAt(off)
}

// Diverged returns the divergence reason if replay was aborted, or "".
func (j *Journal) Diverged() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.diverged
}

// Append commits one evaluation. The record is on disk (and fsynced
// under SyncAlways) before Append returns, so a crash immediately
// after an expensive evaluation loses nothing. Append failures are
// sticky (see Err) but deliberately non-fatal: a full disk must not
// kill a paid-for campaign, it only degrades its durability.
func (j *Journal) Append(e EvalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.replayed < len(j.replay) {
		return errors.New("journal: Append while replay records are pending")
	}
	e.Phase = j.phase
	e.Trial = j.trials
	if err := j.append(frame{T: "eval", Eval: &e}, false); err != nil {
		return err
	}
	j.trials++
	return nil
}

// AppendDone commits the completion marker. Resuming a journal with a
// done record replays every evaluation and reproduces the recorded
// result without spending any new evaluation.
func (j *Journal) AppendDone(d DoneEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done != nil {
		return nil
	}
	if err := j.append(frame{T: "done", Done: &d}, true); err != nil {
		return err
	}
	j.done = &d
	return nil
}

// Done returns the completion marker, if the session finished.
func (j *Journal) Done() (DoneEntry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done == nil {
		return DoneEntry{}, false
	}
	return *j.done, true
}
