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
	payload, _ := json.Marshal(map[string]int{"trials": 20})
	if err := l.AppendTaskDone(TaskDone{Task: 0, Result: payload}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskFailed(TaskFailed{Task: 2, Reason: "boom"}); err != nil {
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
	if ri := r.Recovery(); ri.Truncated || ri.Records != 3 {
		t.Fatalf("recovery = %+v, want 3 records untruncated", ri)
	}
	d, ok := r.TaskDone(0)
	if !ok || string(d.Result) != string(payload) {
		t.Fatalf("done record = %+v, %v", d, ok)
	}
	if _, ok := r.TaskDone(1); ok {
		t.Fatal("task 1 reported done")
	}
	f, ok := r.TaskFailed(2)
	if !ok || f.Reason != "boom" {
		t.Fatalf("failed record = %+v, %v", f, ok)
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	meta := testLedgerMeta()
	l, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskFailed(TaskFailed{Task: 1, Reason: "boom"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskDone(TaskDone{Task: 0}); err != nil {
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
	if _, ok := r.TaskFailed(1); !ok {
		t.Fatal("intact failed record lost")
	}
	if _, ok := r.TaskDone(0); ok {
		t.Fatal("torn done record trusted")
	}
	// The truncated ledger must append cleanly where the tear was cut.
	if err := r.AppendTaskDone(TaskDone{Task: 0}); err != nil {
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

// TestLedgerBadMagic checks that a file with another header is refused
// and left untouched, and that a log of a retired format version is
// named as one, with both versions and what to do about it.
func TestLedgerBadMagic(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   []string
	}{
		{"ROBOLGR1", []string{`format "ROBOLGR1"`, `reads only "ROBOLGR3"`, "bad magic", "move it aside or delete it"}},
		{"ROBOLGR2", []string{`format "ROBOLGR2"`, `reads only "ROBOLGR3"`, "bad magic", "move it aside or delete it"}},
		{"NOTALGRX", []string{"is not a ledger file (bad magic)"}},
		{"ROBOJNL1", []string{"is not a ledger file (bad magic)"}},
	} {
		path := filepath.Join(t.TempDir(), "campaign.lgr")
		data := []byte(tc.header + " plus records")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := OpenLedger(path, testLedgerMeta(), SyncAlways)
		if err == nil {
			t.Fatalf("%s: not rejected", tc.header)
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not say %q", tc.header, err, w)
			}
		}
		if got, _ := os.ReadFile(path); string(got) != string(data) {
			t.Errorf("%s: refused file changed to %q", tc.header, got)
		}
	}
}

func TestLedgerOutOfRangeTaskTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	meta := testLedgerMeta()
	l, err := OpenLedger(path, meta, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendTaskDone(TaskDone{Task: 0}); err != nil {
		t.Fatal(err)
	}
	// A record for a task index outside the manifest: recovery must
	// treat it as corruption, not index into a shorter campaign.
	if err := l.AppendTaskDone(TaskDone{Task: 99}); err != nil {
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
	if _, ok := r.TaskDone(0); !ok {
		t.Fatal("intact record lost")
	}
}
