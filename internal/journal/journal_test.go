package journal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testMeta() Meta {
	return Meta{Seed: 7, Budget: 20, Workload: "KMeans", Dataset: "D1", Tuner: "ROBOTune", Cap: 480, SpaceHash: "abc"}
}

func testEntry(i int) EvalEntry {
	return EvalEntry{
		Config:    map[string]float64{"a": float64(i) + 0.5, "b": 1.0 / 3.0},
		Seconds:   100 + float64(i),
		Raw:       100 + float64(i),
		Completed: i%3 != 0,
		OOM:       i%3 == 0,
		ObjEvals:  i + 1,
		ObjCost:   float64(i+1) * 100,
		Stats:     FailureCounts{Failed: i / 3},
	}
}

// writeJournal creates a journal with n eval records (and optionally a
// done record) and returns its path and raw bytes.
func writeJournal(t testing.TB, n int, done bool) (string, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jnl")
	j, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatalf("Open fresh: %v", err)
	}
	for i := 0; i < n; i++ {
		j.SetPhase("bo")
		if err := j.Append(testEntry(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if done {
		if err := j.AppendDone(DoneEntry{Found: true, BestSeconds: 99, Evals: n}); err != nil {
			t.Fatalf("AppendDone: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// frameEnds walks the on-disk format independently of the package's
// recovery code and returns the byte offset just past each frame —
// a format contract the tests rely on.
func frameEnds(t testing.TB, magic, data []byte) []int64 {
	t.Helper()
	if !bytes.Equal(data[:len(magic)], magic) {
		t.Fatal("missing magic")
	}
	var ends []int64
	off := int64(len(magic))
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < frameOverhead {
			t.Fatalf("torn frame in freshly written journal at %d", off)
		}
		n := binary.LittleEndian.Uint32(rest[:4])
		sum := binary.LittleEndian.Uint32(rest[4:8])
		if int64(len(rest)) < frameOverhead+int64(n) {
			t.Fatalf("short payload in freshly written journal at %d", off)
		}
		if crc32.ChecksumIEEE(rest[frameOverhead:frameOverhead+int64(n)]) != sum {
			t.Fatalf("checksum mismatch in freshly written journal at %d", off)
		}
		off += frameOverhead + int64(n)
		ends = append(ends, off)
	}
	return ends
}

func TestRoundtrip(t *testing.T) {
	const n = 6
	path, _ := writeJournal(t, n, true)

	j, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if !j.Resumed() {
		t.Fatal("Resumed() = false after reopening a populated journal")
	}
	if got := j.ReplayPending(); got != n {
		t.Fatalf("ReplayPending = %d, want %d", got, n)
	}
	if rec := j.Recovery(); rec.Truncated {
		t.Fatalf("clean journal reported truncation: %+v", rec)
	}
	for i := 0; i < n; i++ {
		e, ok := j.NextReplay()
		if !ok {
			t.Fatalf("NextReplay %d: exhausted early", i)
		}
		want := testEntry(i)
		want.Phase, want.Trial = "bo", i
		if !reflect.DeepEqual(e, want) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, e, want)
		}
	}
	if _, ok := j.NextReplay(); ok {
		t.Fatal("NextReplay returned a record past the end")
	}
	d, ok := j.Done()
	if !ok || !d.Found || d.BestSeconds != 99 || d.Evals != n {
		t.Fatalf("Done = %+v, %v", d, ok)
	}
}

func TestFloatRoundtripExact(t *testing.T) {
	// The parity guarantee depends on config values and costs
	// surviving the JSON encoding bit-exactly.
	path := filepath.Join(t.TempDir(), "f.jnl")
	j, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1.0 / 3.0, 0.1, 2.220446049250313e-16, 1e300, 123456789.123456789}
	e := EvalEntry{Config: map[string]float64{}, Seconds: vals[0], Raw: vals[1], ObjCost: vals[4]}
	for i, v := range vals {
		e.Config[string(rune('a'+i))] = v
	}
	if err := j.Append(e); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got, ok := j2.NextReplay()
	if !ok {
		t.Fatal("no record")
	}
	for k, v := range e.Config {
		if got.Config[k] != v {
			t.Fatalf("config[%s] = %v, want bit-identical %v", k, got.Config[k], v)
		}
	}
	if got.Seconds != e.Seconds || got.Raw != e.Raw || got.ObjCost != e.ObjCost {
		t.Fatalf("floats not bit-identical: %+v vs %+v", got, e)
	}
}

func TestMetaMismatch(t *testing.T) {
	path, _ := writeJournal(t, 2, false)
	other := testMeta()
	other.Seed = 8
	if _, err := Open(path, other, SyncNone); err == nil {
		t.Fatal("Open with mismatched meta succeeded; want error")
	}
}

func TestNotAJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.jnl")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testMeta(), SyncNone); err == nil {
		t.Fatal("Open on a non-journal file succeeded; want error")
	}
}

// logCase is one format on the shared record log, as the byte-offset
// sweeps see it: a valid image holding the meta record and then a
// fixed sequence of records, and a rendering of recovered state that
// the sweeps compare with the state a prefix of that sequence makes.
type logCase struct {
	magic []byte
	image func(t testing.TB) []byte
	// want renders the state the first k records after the meta make.
	want func(k int) string
	// open opens path, renders what it recovered, and then appends one
	// record: a recovered log must stay appendable.
	open func(path string) (string, error)
}

// sweepEvals is the number of evaluations in the journal image, which
// ends with a done record.
const sweepEvals = 5

var journalCase = logCase{
	magic: magic,
	image: func(t testing.TB) []byte {
		_, data := writeJournal(t, sweepEvals, true)
		return data
	},
	want: func(k int) string {
		var evals []EvalEntry
		for i := 0; i < min(k, sweepEvals); i++ {
			e := testEntry(i)
			e.Phase, e.Trial = "bo", i
			evals = append(evals, e)
		}
		return renderJournal(evals, k > sweepEvals)
	},
	open: func(path string) (string, error) {
		j, err := Open(path, testMeta(), SyncNone)
		if err != nil {
			return "", err
		}
		defer j.Close()
		var evals []EvalEntry
		for {
			e, ok := j.NextReplay()
			if !ok {
				break
			}
			evals = append(evals, e)
		}
		_, done := j.Done()
		j.SetPhase("bo")
		if err := j.Append(testEntry(len(evals))); err != nil {
			return "", fmt.Errorf("append after recovery: %w", err)
		}
		return renderJournal(evals, done), nil
	},
}

func renderJournal(evals []EvalEntry, done bool) string {
	return fmt.Sprintf("evals %+v done %v", evals, done)
}

// ledgerState is the recovered ledger as the sweeps compare it.
type ledgerState struct {
	Done   []TaskDone
	Failed []TaskFailed
}

var ledgerCase = logCase{
	magic: ledgerMagic,
	image: func(t testing.TB) []byte {
		data, _ := writeLedger(t)
		return data
	},
	want: func(k int) string {
		var s ledgerState
		for _, fr := range ledgerSeq[:k] {
			if fr.Done != nil {
				s.Done = append(s.Done, *fr.Done)
			} else {
				s.Failed = append(s.Failed, *fr.Failed)
			}
		}
		return fmt.Sprintf("%+v", s)
	},
	open: func(path string) (string, error) {
		meta := testLedgerMeta()
		l, err := OpenLedger(path, meta, SyncNone)
		if err != nil {
			return "", err
		}
		defer l.Close()
		var s ledgerState
		for i := -1; i <= len(meta.Tasks); i++ { // one task either side of the manifest
			if d, ok := l.TaskDone(i); ok {
				s.Done = append(s.Done, d)
			}
			if f, ok := l.TaskFailed(i); ok {
				s.Failed = append(s.Failed, f)
			}
		}
		if err := l.AppendTaskDone(TaskDone{Task: 1}); err != nil {
			return "", fmt.Errorf("append after recovery: %w", err)
		}
		return fmt.Sprintf("%+v", s), nil
	},
}

// The byte-offset sweeps run over both formats; the ledger's are named
// so that the campaign suites' TestLedger filter selects them too.
func TestTruncateEveryOffset(t *testing.T)       { truncateEveryOffset(t, journalCase) }
func TestLedgerTruncateEveryOffset(t *testing.T) { truncateEveryOffset(t, ledgerCase) }
func TestBitFlipEveryOffset(t *testing.T)        { bitFlipEveryOffset(t, journalCase) }
func TestLedgerBitFlipEveryOffset(t *testing.T)  { bitFlipEveryOffset(t, ledgerCase) }

// truncateEveryOffset cuts the image at every byte offset and asserts
// recovery never panics or fails, keeps exactly the records fully
// contained in the prefix, never invents one, and leaves the log
// appendable.
func truncateEveryOffset(t *testing.T, c logCase) {
	data := c.image(t)
	ends := frameEnds(t, c.magic, data) // meta, then the records
	for cut := 0; cut <= len(data); cut++ {
		complete := 0 // whole frames inside the prefix
		for _, e := range ends {
			if int64(cut) >= e {
				complete++
			}
		}
		path := filepath.Join(t.TempDir(), "cut")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := c.open(path)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if want := c.want(max(complete-1, 0)); got != want {
			t.Fatalf("cut=%d: recovered\n %s\nwant\n %s", cut, got, want)
		}
	}
}

// bitFlipEveryOffset flips one bit at every byte offset and asserts
// recovery never panics, rejects a corrupt magic, and otherwise keeps
// exactly the records whose frames precede the corruption (none when
// the meta frame is hit: the log starts fresh).
func bitFlipEveryOffset(t *testing.T, c logCase) {
	data := c.image(t)
	ends := frameEnds(t, c.magic, data)
	for pos := 0; pos < len(data); pos++ {
		mut := append([]byte(nil), data...)
		mut[pos] ^= 0x40
		path := filepath.Join(t.TempDir(), "flip")
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := c.open(path)
		if pos < len(c.magic) {
			if err == nil {
				t.Fatalf("pos=%d: corrupt magic accepted", pos)
			}
			continue
		}
		if err != nil {
			t.Fatalf("pos=%d: %v", pos, err)
		}
		intact := 0 // frames wholly before the flipped byte
		for _, e := range ends {
			if e <= int64(pos) {
				intact++
			}
		}
		if want := c.want(max(intact-1, 0)); got != want {
			t.Fatalf("pos=%d: recovered\n %s\nwant\n %s", pos, got, want)
		}
	}
}

func TestAppendWhileReplayingFails(t *testing.T) {
	path, _ := writeJournal(t, 3, false)
	j, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(testEntry(9)); err == nil {
		t.Fatal("Append with pending replay succeeded; want error")
	}
	for {
		if _, ok := j.NextReplay(); !ok {
			break
		}
	}
	if err := j.Append(testEntry(3)); err != nil {
		t.Fatalf("Append after replay drained: %v", err)
	}
}

func TestAbortReplayTruncates(t *testing.T) {
	path, _ := writeJournal(t, 5, true)
	j, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	j.NextReplay()
	j.NextReplay()
	if err := j.AbortReplay("test divergence"); err != nil {
		t.Fatalf("AbortReplay: %v", err)
	}
	if j.Diverged() == "" {
		t.Fatal("Diverged() empty after abort")
	}
	if got := j.ReplayPending(); got != 0 {
		t.Fatalf("ReplayPending = %d after abort", got)
	}
	if _, ok := j.Done(); ok {
		t.Fatal("done record survived an aborted replay")
	}
	// New appends continue from the truncation point...
	j.SetPhase("bo")
	if err := j.Append(testEntry(2)); err != nil {
		t.Fatalf("Append after abort: %v", err)
	}
	j.Close()
	// ...and a fresh open sees 2 replayed + 1 appended records.
	j2, err := Open(path, testMeta(), SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.ReplayPending(); got != 3 {
		t.Fatalf("after abort+append reopen: %d records, want 3", got)
	}
}

func TestFreshAndShortFiles(t *testing.T) {
	// Opening short/empty stubs must initialize a fresh journal.
	for _, stub := range [][]byte{nil, {}, []byte("ROB"), magic[:7]} {
		path := filepath.Join(t.TempDir(), "stub.jnl")
		if stub != nil {
			if err := os.WriteFile(path, stub, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		j, err := Open(path, testMeta(), SyncAlways)
		if err != nil {
			t.Fatalf("stub %q: %v", stub, err)
		}
		if j.Resumed() {
			t.Fatalf("stub %q: resumed from nothing", stub)
		}
		if err := j.Append(testEntry(0)); err != nil {
			t.Fatalf("stub %q: append: %v", stub, err)
		}
		j.Close()
	}
}
