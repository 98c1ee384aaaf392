package journal

import (
	"encoding/json"
	"fmt"
)

// ledgerMagic identifies a campaign ledger file; like the session
// journal's magic it doubles as the format version.
var ledgerMagic = []byte("ROBOLGR1")

// LedgerMeta identifies the campaign a ledger belongs to. Resume
// validates the ledger's meta record against this one byte for byte
// before trusting the records: a ledger written for a different task
// list, seed or configuration must not silently steer a new campaign.
type LedgerMeta struct {
	// Seed is the campaign-level seed (0 when the campaign derives all
	// randomness from per-task seeds).
	Seed uint64 `json:"seed,omitempty"`
	// Tasks names every task in campaign order; the index into this
	// list is the task identity all other records use.
	Tasks []string `json:"tasks"`
	// Journals holds each task's session-journal paths, joined with the
	// OS path-list separator, parallel to Tasks ("" for tasks without
	// one). Recorded so an operator — or a resume on a different
	// invocation — can find the per-session evidence from the ledger
	// alone.
	Journals []string `json:"journals,omitempty"`
	// Config is a free-form fingerprint of everything else that must
	// match for the records to be replayable (budgets, fault plan,
	// reallocation policy, ...).
	Config string `json:"config,omitempty"`
}

// TaskStart marks a task as claimed by a (possibly crashed) run. A
// started-but-not-done task is the resume signal to replay its session
// journal rather than skip it.
type TaskStart struct {
	Task int `json:"task"`
}

// TaskDone records a task that ran to completion: how many budgeted
// trials it consumed, how many evaluations it left unspent (returned
// to the campaign's budget pool), and an opaque owner-defined result
// payload that resume hands back without re-running anything.
type TaskDone struct {
	Task    int             `json:"task"`
	Trials  int             `json:"trials"`
	Surplus int             `json:"surplus"`
	Result  json.RawMessage `json:"result,omitempty"`
}

// TaskFailed records a task whose session panicked (or could not
// start). Its unspent budget is surrendered to the pool like a
// completed task's; resume does not retry it — a deterministic
// campaign would only crash the same way again, and retrying would
// double-spend the surrendered surplus.
type TaskFailed struct {
	Task    int    `json:"task"`
	Reason  string `json:"reason"`
	Trials  int    `json:"trials"`
	Surplus int    `json:"surplus"`
}

// Grant records one budget-pool decision for a session that ran dry:
// Evals extra evaluations granted to session Session of Task, or 0
// when the pool declined and the session finished. Decisions are
// journaled before they are applied (write-ahead), declines included,
// so a resumed campaign replays exactly the decisions the original run
// made, at the same points in each session's trial sequence — a
// session that ran dry on an empty pool runs dry again on resume, even
// if the pool has refilled since. Seq is the campaign-wide decision
// ordinal; Trials is the receiving session's trial count at the
// decision (diagnostic — replay consumes a session's decisions in
// order, whenever its tuner runs dry).
type Grant struct {
	Seq     int `json:"seq"`
	Task    int `json:"task"`
	Session int `json:"session,omitempty"`
	Evals   int `json:"evals"`
	Trials  int `json:"trials,omitempty"`
}

// ledgerFrame is the on-disk record envelope; exactly one pointer is
// set. It rides the same CRC framing as the session journal.
type ledgerFrame struct {
	T      string      `json:"t"`
	Meta   *LedgerMeta `json:"meta,omitempty"`
	Start  *TaskStart  `json:"start,omitempty"`
	Done   *TaskDone   `json:"done,omitempty"`
	Failed *TaskFailed `json:"failed,omitempty"`
	Grant  *Grant      `json:"grant,omitempty"`
}

// Ledger is an open campaign ledger: the durable half of the
// scheduler's task list. Appends are serialized by the log's mutex —
// unlike the session journal, many task goroutines write to one
// ledger.
type Ledger struct {
	recordLog
	tasks int // manifest length; a record naming a task outside it is corrupt

	started map[int]bool
	done    map[int]TaskDone
	failed  map[int]TaskFailed
	grants  []Grant
}

// OpenLedger opens or creates the campaign ledger at path. An
// existing ledger is recovered — its meta record must match the given
// meta's, a torn tail record is truncated — and its task records
// become the campaign's resume state.
func OpenLedger(path string, meta LedgerMeta, policy SyncPolicy) (*Ledger, error) {
	l := &Ledger{
		recordLog: recordLog{policy: policy},
		tasks:     len(meta.Tasks),
		started:   make(map[int]bool),
		done:      make(map[int]TaskDone),
		failed:    make(map[int]TaskFailed),
	}
	if err := l.open(path, "ledger", "campaign", ledgerMagic, ledgerFrame{T: "meta", Meta: &meta}, l.decode); err != nil {
		return nil, err
	}
	return l, nil
}

// decode takes one recovered record after the meta record into the
// per-task record maps and the grant list.
func (l *Ledger) decode(payload []byte, _ int64) string {
	var fr ledgerFrame
	if err := json.Unmarshal(payload, &fr); err != nil {
		return "unparsable record payload"
	}
	valid := func(i int) bool { return i >= 0 && i < l.tasks }
	switch {
	case fr.T == "start" && fr.Start != nil && valid(fr.Start.Task):
		l.started[fr.Start.Task] = true
	case fr.T == "done" && fr.Done != nil && valid(fr.Done.Task):
		l.done[fr.Done.Task] = *fr.Done
	case fr.T == "failed" && fr.Failed != nil && valid(fr.Failed.Task):
		l.failed[fr.Failed.Task] = *fr.Failed
	case fr.T == "grant" && fr.Grant != nil && valid(fr.Grant.Task):
		l.grants = append(l.grants, *fr.Grant)
	default:
		return fmt.Sprintf("unexpected %q record", fr.T)
	}
	return ""
}

// TaskStarted reports whether a start record exists for task i.
func (l *Ledger) TaskStarted(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.started[i]
}

// TaskDone returns task i's completion record, if it finished.
func (l *Ledger) TaskDone(i int) (TaskDone, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.done[i]
	return d, ok
}

// TaskFailed returns task i's failure record, if it crashed.
func (l *Ledger) TaskFailed(i int) (TaskFailed, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, ok := l.failed[i]
	return f, ok
}

// Grants returns every recorded grant decision (declines included) in
// append order.
func (l *Ledger) Grants() []Grant {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Grant(nil), l.grants...)
}

// AppendStart commits a start record for task i.
func (l *Ledger) AppendStart(i int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.started[i] {
		return nil
	}
	if err := l.append(ledgerFrame{T: "start", Start: &TaskStart{Task: i}}, false); err != nil {
		return err
	}
	l.started[i] = true
	return nil
}

// AppendTaskDone commits a completion record. The record is durable
// before the campaign banks the task's surplus or skips the task on
// resume.
func (l *Ledger) AppendTaskDone(d TaskDone) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.done[d.Task]; ok {
		return nil
	}
	if err := l.append(ledgerFrame{T: "done", Done: &d}, false); err != nil {
		return err
	}
	l.done[d.Task] = d
	return nil
}

// AppendTaskFailed commits a failure record.
func (l *Ledger) AppendTaskFailed(f TaskFailed) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.failed[f.Task]; ok {
		return nil
	}
	if err := l.append(ledgerFrame{T: "failed", Failed: &f}, false); err != nil {
		return err
	}
	l.failed[f.Task] = f
	return nil
}

// AppendGrant commits one budget-pool decision. Write-ahead: the caller
// only applies the grant after this returns nil, so the set of applied
// grants is always a prefix of the journaled ones and replay can never
// disagree with a grant the original run acted on.
func (l *Ledger) AppendGrant(g Grant) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.append(ledgerFrame{T: "grant", Grant: &g}, false); err != nil {
		return err
	}
	l.grants = append(l.grants, g)
	return nil
}
