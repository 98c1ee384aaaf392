package journal

import (
	"encoding/json"
	"fmt"
)

// ledgerMagic identifies a campaign ledger file; like the session
// journal's magic it doubles as the format version.
var ledgerMagic = []byte("ROBOLGR3")

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
	// result format, ...).
	Config string `json:"config,omitempty"`
}

// TaskDone records a task that ran to completion with an opaque
// owner-defined result payload that resume hands back without
// re-running anything.
type TaskDone struct {
	Task   int             `json:"task"`
	Result json.RawMessage `json:"result,omitempty"`
}

// TaskFailed records a task whose session panicked (or could not
// start). Resume does not retry it: a deterministic campaign would
// only crash the same way again.
type TaskFailed struct {
	Task   int    `json:"task"`
	Reason string `json:"reason"`
}

// ledgerFrame is the on-disk record envelope; exactly one pointer is
// set. It rides the same CRC framing as the session journal.
type ledgerFrame struct {
	T      string      `json:"t"`
	Meta   *LedgerMeta `json:"meta,omitempty"`
	Done   *TaskDone   `json:"done,omitempty"`
	Failed *TaskFailed `json:"failed,omitempty"`
}

// Ledger is an open campaign ledger: the durable half of the
// scheduler's task list. Appends are serialized by the log's mutex —
// unlike the session journal, many task goroutines write to one
// ledger.
type Ledger struct {
	recordLog
	tasks int // manifest length; a record naming a task outside it is corrupt

	done   map[int]TaskDone
	failed map[int]TaskFailed
}

// OpenLedger opens or creates the campaign ledger at path. An
// existing ledger is recovered — its meta record must match the given
// meta's, a torn tail record is truncated — and its task records
// become the campaign's resume state.
func OpenLedger(path string, meta LedgerMeta, policy SyncPolicy) (*Ledger, error) {
	l := &Ledger{
		recordLog: recordLog{policy: policy},
		tasks:     len(meta.Tasks),
		done:      make(map[int]TaskDone),
		failed:    make(map[int]TaskFailed),
	}
	if err := l.open(path, "ledger", "campaign", ledgerMagic, ledgerFrame{T: "meta", Meta: &meta}, l.decode); err != nil {
		return nil, err
	}
	return l, nil
}

// decode takes one recovered record after the meta record into the
// per-task record maps.
func (l *Ledger) decode(payload []byte, _ int64) string {
	var fr ledgerFrame
	if err := json.Unmarshal(payload, &fr); err != nil {
		return "unparsable record payload"
	}
	valid := func(i int) bool { return i >= 0 && i < l.tasks }
	switch {
	case fr.T == "done" && fr.Done != nil && valid(fr.Done.Task):
		l.done[fr.Done.Task] = *fr.Done
	case fr.T == "failed" && fr.Failed != nil && valid(fr.Failed.Task):
		l.failed[fr.Failed.Task] = *fr.Failed
	default:
		return fmt.Sprintf("unexpected %q record", fr.T)
	}
	return ""
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

// AppendTaskDone commits a completion record; once it is durable a
// resumed campaign skips the task.
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
