package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// frameOverhead is the per-record framing cost: u32 payload length +
// u32 CRC32 (IEEE) of the payload.
const frameOverhead = 8

// maxRecordBytes bounds a single record so a corrupt length prefix
// cannot drive recovery into a giant allocation.
const maxRecordBytes = 16 << 20

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every appended record: an evaluation is
	// durable before the tuner acts on it. This is the default; with
	// evaluations costing minutes of cluster time each, an fsync is
	// noise.
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs explicitly (the OS flushes on its own
	// schedule). A kernel crash may lose trailing records; a process
	// crash alone does not. The meta record and a session journal's
	// done record are fsynced regardless.
	SyncNone
)

// RecoveryInfo reports what recovery found and did. Nothing is dropped
// silently: every discarded byte is accounted for here.
type RecoveryInfo struct {
	// Records is the number of intact records recovered (all types).
	Records int
	// Truncated is true when a torn or corrupt tail was cut off.
	Truncated bool
	// TruncatedBytes is how many trailing bytes were discarded.
	TruncatedBytes int64
	// Reason describes why truncation happened (short read, CRC
	// mismatch, unparsable payload).
	Reason string
}

// recordLog is the append-only file under both the session journal
// and the campaign ledger: a magic header, the format's meta record,
// then its other records, each framed by frameRecord. Journal and
// Ledger embed it; mu guards the log together with the embedding
// type's own state, so the log's unexported methods expect it held.
type recordLog struct {
	mu       sync.Mutex
	f        *os.File
	policy   SyncPolicy
	resumed  bool
	recovery RecoveryInfo
	err      error // first append or truncate failure
}

// open opens the log at path, naming it kind ("journal" or "ledger")
// in errors, and either recovers it or creates it. meta is the meta
// record this run would write; owner names what it identifies
// ("session" or "campaign"). decode takes each record after the meta
// record with its offset, and returns "" to accept it or the reason
// to truncate the log there.
func (l *recordLog) open(path, kind, owner string, magic []byte, meta any, decode func(payload []byte, off int64) string) error {
	rec, err := json.Marshal(meta)
	if err == nil {
		l.f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", kind, err)
	}
	if err := l.recover(path, kind, owner, magic, rec, decode); err != nil {
		l.f.Close()
		return fmt.Errorf("%s: %w", kind, err)
	}
	return nil
}

// recover reads the whole log. A file that holds less than the magic
// header is created afresh, and so is one whose first record is torn
// or not a meta record, with the discarded bytes reported: the meta
// record is fsynced at creation, so its absence means the header
// append itself was torn and nothing after it can have committed.
// Otherwise the first record must equal rec byte for byte — a log
// written for another session or campaign is refused and left
// untouched — and the records after it are decoded up to the first
// torn, corrupt or rejected one, where the file is truncated.
func (l *recordLog) recover(path, kind, owner string, magic, rec []byte, decode func([]byte, int64) string) error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	if len(data) < len(magic) {
		return l.create(path, magic, rec)
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return fmt.Errorf("%s is not a %s file (bad magic)", path, kind)
	}
	off := int64(len(magic))
	first, size, reason := nextFrame(data, off)
	if reason == "" && !bytes.Equal(first, rec) {
		var fr struct {
			T string `json:"t"`
		}
		if json.Unmarshal(first, &fr) == nil && fr.T == "meta" {
			return fmt.Errorf("%s was recorded for a different %s; "+
				"use a new %s file or rerun with the original flags", path, owner, kind)
		}
		reason = "first record is not a meta record"
	}
	if reason != "" {
		l.recovery = RecoveryInfo{Truncated: true, TruncatedBytes: int64(len(data)), Reason: reason}
		return l.create(path, magic, rec)
	}
	l.resumed = true
	l.recovery.Records = 1
	for off += size; off < int64(len(data)); off += size {
		var payload []byte
		if payload, size, reason = nextFrame(data, off); reason == "" {
			reason = decode(payload, off)
		}
		if reason != "" {
			l.recovery.Truncated = true
			l.recovery.TruncatedBytes = int64(len(data)) - off
			l.recovery.Reason = reason
			return l.truncateAt(off)
		}
		l.recovery.Records++
	}
	return nil
}

// create writes a new log — magic and meta record in one write — over
// whatever the file held, and fsyncs it and its directory, so a log
// whose later records are fsynced cannot lose its directory entry.
func (l *recordLog) create(path string, magic, rec []byte) error {
	err := l.truncateAt(0)
	if err == nil {
		_, err = l.f.Write(append(append([]byte(nil), magic...), frameRecord(rec)...))
	}
	if err == nil {
		err = l.f.Sync()
	}
	if err == nil {
		syncDir(filepath.Dir(path))
	}
	return err
}

// append commits one record: one marshal, one framed write, and an
// fsync under SyncAlways or when sync is set.
func (l *recordLog) append(fr any, sync bool) error {
	payload, err := json.Marshal(fr)
	if err != nil {
		return l.fail(fmt.Errorf("marshal record: %w", err))
	}
	if _, err := l.f.Write(frameRecord(payload)); err != nil {
		return l.fail(fmt.Errorf("append record: %w", err))
	}
	if sync || l.policy == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return l.fail(err)
		}
	}
	return nil
}

// truncateAt cuts the log back to off, where the next append lands.
func (l *recordLog) truncateAt(off int64) error {
	if err := l.f.Truncate(off); err != nil {
		return l.fail(err)
	}
	if _, err := l.f.Seek(off, io.SeekStart); err != nil {
		return l.fail(err)
	}
	return nil
}

// fail records err if it is the log's first failure, and returns it.
// Failures are sticky but deliberately non-fatal: a full disk must not
// kill a paid-for campaign, it only degrades its durability.
func (l *recordLog) fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Err returns the first append or truncate failure, if any.
// Callers surface it at the end of the session or campaign.
func (l *recordLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Resumed reports whether opening recovered an existing file.
func (l *recordLog) Resumed() bool { return l.resumed }

// Recovery returns what recovery found and truncated.
func (l *recordLog) Recovery() RecoveryInfo { return l.recovery }

// Close syncs and closes the file; closing twice is a no-op.
func (l *recordLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// frameRecord frames a payload for append: u32 little-endian length +
// u32 CRC32 (IEEE) of the payload, then the payload itself, as one
// contiguous buffer — a single write keeps a torn append contiguous at
// the tail, where recovery truncates it cleanly.
func frameRecord(payload []byte) []byte {
	buf := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameOverhead:], payload)
	return buf
}

// nextFrame parses the frame starting at data[off]. On success it
// returns the payload and the frame's total on-disk size; otherwise a
// non-empty reason names the torn or corrupt condition recovery must
// truncate at. It never panics on hostile input: lengths are bounded
// before any allocation.
func nextFrame(data []byte, off int64) (payload []byte, size int64, reason string) {
	rest := data[off:]
	if len(rest) < frameOverhead {
		return nil, 0, "torn frame header"
	}
	n := binary.LittleEndian.Uint32(rest[:4])
	sum := binary.LittleEndian.Uint32(rest[4:8])
	if n == 0 || n > maxRecordBytes {
		return nil, 0, fmt.Sprintf("implausible record length %d", n)
	}
	if int64(len(rest)) < frameOverhead+int64(n) {
		return nil, 0, "torn record payload"
	}
	payload = rest[frameOverhead : frameOverhead+int64(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, "record checksum mismatch"
	}
	return payload, frameOverhead + int64(n), ""
}

// WriteFile replaces the file at path with data, atomically and
// durably: data goes to path+".tmp", which is fsynced and renamed over
// path, and the directory is then fsynced so the rename itself
// survives a crash. Readers see the old file or the new one, never a
// torn mix.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed file's
// directory entry is durable; best-effort (some filesystems reject
// directory fsync).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
