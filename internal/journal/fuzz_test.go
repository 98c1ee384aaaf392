package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to recovery: whatever is on disk —
// torn tails, flipped bits, hostile lengths, random garbage — Open
// must either return an error or a usable journal, and never panic.
// A journal it starts fresh has nothing to replay and no done record.
// The seed corpus is a well-formed journal so mutations explore the
// interesting frame-boundary space.
func FuzzOpen(f *testing.F) {
	_, valid := writeJournal(f, 3, true)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte(nil), magic...), valid[frameEnds(f, magic, valid)[0]:]...)) // records without their meta
	f.Add([]byte{})
	f.Add([]byte("ROBOJNL1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jnl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, testMeta(), SyncNone)
		if err != nil {
			return
		}
		if _, done := j.Done(); !j.Resumed() && (done || j.ReplayPending() > 0) {
			t.Fatalf("fresh journal holds %d records to replay (done=%v)", j.ReplayPending(), done)
		}
		// Whatever survived recovery must be fully traversable and
		// appendable.
		for {
			if _, ok := j.NextReplay(); !ok {
				break
			}
		}
		j.Done()
		j.SetPhase("bo")
		if err := j.Append(testEntry(0)); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		j.Close()
	})
}

// writeLedger builds a well-formed ledger image holding ledgerSeq, and
// returns it with the length of its header (magic + meta).
func writeLedger(t testing.TB) (data []byte, header int) {
	path := filepath.Join(t.TempDir(), "campaign.lgr")
	l, err := OpenLedger(path, testLedgerMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	appendLedgerSeq(t, l, ledgerSeq)
	l.Close()
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	return data, len(fresh)
}

// FuzzLedgerOpen does for the campaign ledger what FuzzOpen does for
// session journals: whatever bytes are on disk, OpenLedger returns an
// error or a usable ledger and never panics. A ledger it accepts
// reports no done or failed record for a task outside its manifest,
// and none at all when it started fresh.
func FuzzLedgerOpen(f *testing.F) {
	valid, header := writeLedger(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(append(append([]byte(nil), ledgerMagic...), valid[header:]...)) // records without their meta
	f.Add([]byte{})
	f.Add(append([]byte(nil), ledgerMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.lgr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		meta := testLedgerMeta()
		l, err := OpenLedger(path, meta, SyncNone)
		if err != nil {
			return
		}
		defer l.Close()
		for i := -2; i < len(meta.Tasks)+2; i++ {
			if i >= 0 && i < len(meta.Tasks) && l.Resumed() {
				continue
			}
			_, done := l.TaskDone(i)
			_, failed := l.TaskFailed(i)
			if done || failed {
				t.Fatalf("task %d: records reported (resumed=%v, manifest of %d)", i, l.Resumed(), len(meta.Tasks))
			}
		}
		if err := l.AppendTaskDone(TaskDone{Task: 0}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	})
}
