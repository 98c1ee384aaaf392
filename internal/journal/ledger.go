package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// ledgerMagic identifies a campaign ledger file; like the session
// journal's magic it doubles as the format version.
var ledgerMagic = []byte("ROBOLGR1")

// LedgerMeta identifies the campaign a ledger belongs to. Resume
// validates every field before trusting the records: a ledger written
// for a different task list, seed or configuration must not silently
// steer a new campaign.
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

func (m LedgerMeta) equal(o LedgerMeta) bool {
	if m.Seed != o.Seed || m.Config != o.Config || len(m.Tasks) != len(o.Tasks) || len(m.Journals) != len(o.Journals) {
		return false
	}
	for i := range m.Tasks {
		if m.Tasks[i] != o.Tasks[i] {
			return false
		}
	}
	for i := range m.Journals {
		if m.Journals[i] != o.Journals[i] {
			return false
		}
	}
	return true
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
// scheduler's task list. Appends are serialized by a mutex — unlike
// the session journal, many task goroutines write to one ledger.
type Ledger struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	policy SyncPolicy
	meta   LedgerMeta

	started  map[int]bool
	done     map[int]TaskDone
	failed   map[int]TaskFailed
	grants   []Grant
	resumed  bool
	recovery RecoveryInfo
	writeErr error
}

// OpenLedger opens or creates the campaign ledger at path. An
// existing ledger is recovered — a torn tail record is truncated, its
// meta is validated against the given meta — and its task records
// become the campaign's resume state.
func OpenLedger(path string, meta LedgerMeta, policy SyncPolicy) (*Ledger, error) {
	l := &Ledger{
		path:    path,
		policy:  policy,
		meta:    meta,
		started: make(map[int]bool),
		done:    make(map[int]TaskDone),
		failed:  make(map[int]TaskFailed),
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	l.f = f
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: read %s: %w", path, err)
	}
	if len(data) < len(ledgerMagic) {
		if err := l.initFresh(int64(len(data))); err != nil {
			f.Close()
			return nil, err
		}
		return l, nil
	}
	if !bytes.Equal(data[:len(ledgerMagic)], ledgerMagic) {
		f.Close()
		return nil, fmt.Errorf("ledger: %s is not a campaign ledger (bad magic)", path)
	}
	if err := l.recover(data); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// initFresh truncates any partial header and writes a new ledger
// header plus the meta record.
func (l *Ledger) initFresh(had int64) error {
	if had > 0 {
		if err := l.f.Truncate(0); err != nil {
			return fmt.Errorf("ledger: truncate partial header: %w", err)
		}
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if _, err := l.f.Write(ledgerMagic); err != nil {
		return fmt.Errorf("ledger: write header: %w", err)
	}
	if err := l.appendFrame(ledgerFrame{T: "meta", Meta: &l.meta}); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	return nil
}

// recover parses data (a full ledger image), truncates any torn tail,
// validates meta, and rebuilds the per-task record maps.
func (l *Ledger) recover(data []byte) error {
	off := int64(len(ledgerMagic))
	var sawMeta bool
	truncate := func(reason string) {
		l.recovery.Truncated = true
		l.recovery.TruncatedBytes = int64(len(data)) - off
		l.recovery.Reason = reason
	}
	validTask := func(i int) bool { return i >= 0 && i < len(l.meta.Tasks) }
	for off < int64(len(data)) {
		payload, size, reason := nextFrame(data, off)
		if reason != "" {
			truncate(reason)
			break
		}
		var fr ledgerFrame
		if err := json.Unmarshal(payload, &fr); err != nil {
			truncate("unparsable record payload")
			break
		}
		if !sawMeta && fr.T != "meta" {
			// The meta record is written first; task records ahead of it
			// belong to no known campaign and must not survive the fresh
			// start below.
			truncate("record before the campaign meta")
			break
		}
		switch {
		case fr.T == "meta" && fr.Meta != nil:
			if sawMeta {
				truncate("duplicate meta record")
			} else {
				sawMeta = true
				if !fr.Meta.equal(l.meta) {
					return fmt.Errorf("ledger: %s was recorded for a different campaign; "+
						"use a new ledger file or rerun with the original task list and flags", l.path)
				}
			}
		case fr.T == "start" && fr.Start != nil && validTask(fr.Start.Task):
			l.started[fr.Start.Task] = true
		case fr.T == "done" && fr.Done != nil && validTask(fr.Done.Task):
			l.done[fr.Done.Task] = *fr.Done
		case fr.T == "failed" && fr.Failed != nil && validTask(fr.Failed.Task):
			l.failed[fr.Failed.Task] = *fr.Failed
		case fr.T == "grant" && fr.Grant != nil && validTask(fr.Grant.Task):
			l.grants = append(l.grants, *fr.Grant)
		default:
			truncate(fmt.Sprintf("unknown record type %q", fr.T))
		}
		if l.recovery.Truncated {
			break
		}
		off += size
		l.recovery.Records++
	}
	if !sawMeta {
		// The meta record is fsynced at creation; its absence means the
		// header append itself was torn — nothing else can have committed.
		return l.initFresh(int64(len(data)))
	}
	if l.recovery.Truncated {
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("ledger: truncate torn tail: %w", err)
		}
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return err
	}
	l.resumed = true
	return nil
}

// Path returns the ledger file path.
func (l *Ledger) Path() string { return l.path }

// Meta returns the campaign identity the ledger was opened with.
func (l *Ledger) Meta() LedgerMeta { return l.meta }

// Resumed reports whether OpenLedger recovered an existing ledger.
func (l *Ledger) Resumed() bool { return l.resumed }

// Recovery returns what recovery found and truncated.
func (l *Ledger) Recovery() RecoveryInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recovery
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
	if err := l.append(ledgerFrame{T: "start", Start: &TaskStart{Task: i}}); err != nil {
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
	if err := l.append(ledgerFrame{T: "done", Done: &d}); err != nil {
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
	if err := l.append(ledgerFrame{T: "failed", Failed: &f}); err != nil {
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
	if err := l.append(ledgerFrame{T: "grant", Grant: &g}); err != nil {
		return err
	}
	l.grants = append(l.grants, g)
	return nil
}

// append writes one frame and syncs per policy. Callers hold l.mu.
// Failures are sticky (see Err) but non-fatal, matching the session
// journal: a full disk degrades durability, it does not kill the
// campaign.
func (l *Ledger) append(fr ledgerFrame) error {
	if err := l.appendFrame(fr); err != nil {
		l.writeErr = err
		return err
	}
	if l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			l.writeErr = err
			return err
		}
	}
	return nil
}

func (l *Ledger) appendFrame(fr ledgerFrame) error {
	payload, err := json.Marshal(fr)
	if err != nil {
		return fmt.Errorf("ledger: marshal record: %w", err)
	}
	if _, err := l.f.Write(frameRecord(payload)); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	return nil
}

// Err returns the first append failure, if any.
func (l *Ledger) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writeErr
}

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	l.f = nil
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
