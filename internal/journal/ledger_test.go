package journal

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testLedgerMeta() LedgerMeta {
	return LedgerMeta{
		Seed:     7,
		Tasks:    []string{"a", "b", "c"},
		Journals: []string{"a.jnl", "b.jnl", ""},
		Config:   "budget=20",
	}
}

func TestLedgerFreshAndResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	meta := testLedgerMeta()
	l, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if l.Resumed() {
		t.Fatal("fresh ledger claims resumed")
	}
	if err := l.AppendStart(0); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendStart(1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGrant(Grant{Seq: 0, Task: 1, Evals: 5, Trials: 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendGrant(Grant{Seq: 1, Task: 1, Session: 2, Evals: 0, Trials: 25}); err != nil { // a decline
		t.Fatal(err)
	}
	payload, _ := json.Marshal(map[string]int{"trials": 20})
	if err := l.AppendTaskDone(TaskDone{Task: 0, Trials: 20, Surplus: 0, Result: payload}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskFailed(TaskFailed{Task: 2, Reason: "boom", Trials: 3, Surplus: 17}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Resumed() {
		t.Fatal("reopened ledger not resumed")
	}
	if ri := r.Recovery(); ri.Truncated || ri.Records != 7 {
		t.Fatalf("recovery = %+v, want 7 records untruncated", ri)
	}
	if !r.TaskStarted(0) || !r.TaskStarted(1) || r.TaskStarted(2) {
		t.Fatal("start records wrong")
	}
	d, ok := r.TaskDone(0)
	if !ok || d.Trials != 20 || string(d.Result) != string(payload) {
		t.Fatalf("done record = %+v, %v", d, ok)
	}
	if _, ok := r.TaskDone(1); ok {
		t.Fatal("task 1 reported done")
	}
	f, ok := r.TaskFailed(2)
	if !ok || f.Reason != "boom" || f.Surplus != 17 {
		t.Fatalf("failed record = %+v, %v", f, ok)
	}
	gs := r.Grants()
	if len(gs) != 2 || gs[0] != (Grant{Seq: 0, Task: 1, Evals: 5, Trials: 20}) ||
		gs[1] != (Grant{Seq: 1, Task: 1, Session: 2, Evals: 0, Trials: 25}) {
		t.Fatalf("grants = %+v", gs)
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	meta := testLedgerMeta()
	l, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendStart(0); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskDone(TaskDone{Task: 0, Trials: 5}); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Tear the tail: cut the last record mid-payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if ri := r.Recovery(); !ri.Truncated || ri.Reason == "" {
		t.Fatalf("recovery = %+v, want truncation", ri)
	}
	if !r.TaskStarted(0) {
		t.Fatal("intact start record lost")
	}
	if _, ok := r.TaskDone(0); ok {
		t.Fatal("torn done record trusted")
	}
	// The truncated ledger must append cleanly where the tear was cut.
	if err := r.AppendTaskDone(TaskDone{Task: 0, Trials: 5}); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if ri := r2.Recovery(); ri.Truncated {
		t.Fatalf("second recovery truncated: %+v", ri)
	}
	if _, ok := r2.TaskDone(0); !ok {
		t.Fatal("re-appended done record lost")
	}
}

func TestLedgerMetaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	l, err := OpenLedger(path, testLedgerMeta(), SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	other := testLedgerMeta()
	other.Tasks = []string{"a", "b", "d"}
	if _, err := OpenLedger(path, other, SyncAlways); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("task-list mismatch not rejected: %v", err)
	}
	other = testLedgerMeta()
	other.Config = "budget=40"
	if _, err := OpenLedger(path, other, SyncAlways); err == nil {
		t.Fatal("config mismatch not rejected")
	}
}

func TestLedgerBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	if err := os.WriteFile(path, []byte("NOTALGRX plus junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLedger(path, testLedgerMeta(), SyncAlways); err == nil {
		t.Fatal("bad magic not rejected")
	}
}

func TestLedgerOutOfRangeTaskTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	meta := testLedgerMeta()
	l, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendStart(0); err != nil {
		t.Fatal(err)
	}
	// A record for a task index outside the manifest: recovery must
	// treat it as corruption, not index into a shorter campaign.
	if err := l.AppendStart(99); err != nil {
		t.Fatal(err)
	}
	l.Close()
	r, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ri := r.Recovery(); !ri.Truncated {
		t.Fatalf("recovery = %+v, want truncation at out-of-range record", ri)
	}
	if !r.TaskStarted(0) {
		t.Fatal("intact record lost")
	}
}
