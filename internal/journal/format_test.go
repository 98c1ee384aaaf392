package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// ledgerSeq is the fixed ledger record sequence the format pin, the
// byte-offset sweeps and FuzzLedgerOpen write: every record kind.
var ledgerSeq = []ledgerFrame{
	{T: "start", Start: &TaskStart{Task: 0}},
	{T: "start", Start: &TaskStart{Task: 1}},
	{T: "grant", Grant: &Grant{Seq: 0, Task: 1, Session: 1, Evals: 4, Trials: 9}},
	{T: "done", Done: &TaskDone{Task: 0, Trials: 9, Surplus: 2, Result: []byte(`[{"found":true}]`)}},
	{T: "failed", Failed: &TaskFailed{Task: 2, Reason: "panic: boom", Trials: 3, Surplus: 5}},
}

// appendLedgerSeq appends the records of seq through the ledger's
// exported append calls.
func appendLedgerSeq(t testing.TB, l *Ledger, seq []ledgerFrame) {
	t.Helper()
	for _, fr := range seq {
		var err error
		switch {
		case fr.Start != nil:
			err = l.AppendStart(fr.Start.Task)
		case fr.Grant != nil:
			err = l.AppendGrant(*fr.Grant)
		case fr.Done != nil:
			err = l.AppendTaskDone(*fr.Done)
		case fr.Failed != nil:
			err = l.AppendTaskFailed(*fr.Failed)
		}
		if err != nil {
			t.Fatalf("append %s record: %v", fr.T, err)
		}
	}
}

// writePinned writes the pinned call sequence into dir: a journal of
// five evaluations and a done record (format.jnl), and a ledger
// holding every record kind (format.lgr).
func writePinned(t testing.TB, dir string) {
	t.Helper()
	meta := testMeta()
	meta.Deadline, meta.Retries, meta.Faults = 600, 2, "oom=0.1,seed=3"
	j, err := Open(filepath.Join(dir, "format.jnl"), meta, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		e := testEntry(i)
		j.SetPhase("bo")
		if i < 2 {
			j.SetPhase("selection")
		}
		switch i {
		case 3:
			e.Transient, e.FidelityInput, e.FidelityStage = true, 0.25, 0.5
			e.Stats.Transient, e.Stats.Retries, e.Stats.BackoffSeconds = 1, 1, 2.5
		case 4:
			e.Skipped, e.Infeasible = true, true
			e.Stats.Skipped, e.Stats.Infeasible = 1, 1
		}
		if err := j.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.AppendDone(DoneEntry{
		Best: map[string]float64{"a": 1.5, "b": 1.0 / 3.0}, BestSeconds: 101, Found: true,
		Evals: 5, SearchCost: 500, SelectionEvals: 2, SelectionCost: 201,
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	l, err := OpenLedger(filepath.Join(dir, "format.lgr"), testLedgerMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	appendLedgerSeq(t, l, ledgerSeq)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalFormatPinned writes the pinned call sequence and compares
// every byte with testdata, which the same sequence wrote before the
// journal and the ledger shared one record log. It is the one test
// that pins the on-disk format: a change that fails it is a format
// change, and needs a new magic, not new testdata.
func TestJournalFormatPinned(t *testing.T) {
	dir := t.TempDir()
	writePinned(t, dir)
	for _, name := range []string{"format.jnl", "format.lgr"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wrote %d bytes that differ from the pinned %d:\n got  %q\n want %q", name, len(got), len(want), got, want)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("sequence left %d files behind, want 2 (err %v)", len(entries), err)
	}
}
