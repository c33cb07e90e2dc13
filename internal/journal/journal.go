// Package journal is the durable round-state log that lets an aggregator
// survive a crash: one append-only, CRC-framed, fsync-on-commit
// write-ahead log file, compacted by rewriting it, built on the stdlib
// only.
//
// An aggregator appends one record per accepted mutation (register, upload,
// aggregate, ...) *before* acknowledging it to the caller, so any state a
// party has seen confirmed is recoverable. On restart, Open returns every
// committed record in wal.log; a torn or corrupted tail — the expected
// artifact of a crash mid-append — is truncated away silently, recovering
// to the last committed record instead of erroring out.
//
// On-disk format (wal.log):
//
//	record = type(1) | len(4, big-endian) | crc32c(4) | data(len)
//
// where the checksum covers the type byte, the length, and the data, so a
// bit flip anywhere in a record is detected. Compact replaces the log with
// a shorter one holding the caller's records: it writes them to wal.tmp,
// fsyncs it, renames it over wal.log and fsyncs the directory, then keeps
// appending to the renamed file. A crash leaves either the old log or the
// new one, each complete on its own, so there is no window in which two
// files must be combined; a wal.tmp left behind is a compaction that never
// committed, and Open deletes it.
package journal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

const (
	logName  = "wal.log"
	tempName = "wal.tmp"

	headerSize = 9 // type(1) + len(4) + crc(4)

	// MaxRecord bounds a single record so a corrupted length prefix cannot
	// drive a giant allocation; model fragments fit comfortably.
	MaxRecord = 1 << 30
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed journal.
var ErrClosed = errors.New("journal: closed")

// Record is one committed journal entry: an application-defined type tag
// and an opaque payload.
type Record struct {
	Type uint8
	Data []byte
}

// Options configures a journal.
type Options struct {
	// NoSync skips the per-append fsync. Records then survive process
	// crashes but not host crashes — acceptable for tests and benchmarks,
	// not for deployments.
	NoSync bool
}

// Recovered is what Open found on disk.
type Recovered struct {
	// Records are the committed records of wal.log, in append order. Their
	// Data aliases the one buffer Open read the file into: a caller that
	// keeps a payload past replay copies it out.
	Records []Record
	// Truncated reports that a torn or corrupted tail was discarded — the
	// normal signature of a crash mid-append, not an error.
	Truncated bool
}

// Journal is an open write-ahead log. Methods are safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	dir    string
	log    *os.File
	off    int64 // committed end of wal.log
	noSync bool
	tail   int // records in wal.log not written by the last Compact
	closed bool
	// frame is append's reused framing buffer: a record's header and
	// payload, written with one write. It grows only until it fits the
	// largest record, so an append allocates nothing.
	frame []byte
}

// Open opens (creating if needed) the journal in dir and recovers its
// contents. A torn tail is truncated in place so subsequent appends start
// from the last committed record. Every recovered record counts toward
// TailLen, so a restart brings the next compaction forward, never back.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// Journals once kept compacted state in a second file. Replaying the
	// log without it would recover a node missing every compacted round,
	// so such a directory is refused rather than half-read.
	old := filepath.Join(dir, "snapshot.bin")
	if _, err := os.Stat(old); err == nil {
		return nil, nil, fmt.Errorf("journal: %s is a compaction snapshot this journal no longer reads; its state is not in %s", old, logName)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	// A leftover temp file is a compaction that never committed: the log
	// beside it is still the whole state.
	os.Remove(filepath.Join(dir, tempName))

	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	rec := &Recovered{}
	good := 0
	for good < len(b) {
		r, n, err := decodeRecord(b[good:])
		if err != nil {
			rec.Truncated = true
			break
		}
		rec.Records = append(rec.Records, r)
		good += n
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	if good < len(b) {
		if err := f.Truncate(int64(good)); err != nil {
			_ = f.Close() // the truncate error is the one worth reporting
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(good), io.SeekStart); err != nil {
		_ = f.Close() // the seek error is the one worth reporting
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, log: f, off: int64(good), noSync: opts.NoSync, tail: len(rec.Records)}
	return j, rec, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// TailLen returns the number of records in the log that the last Compact
// did not write (recovered ones included) — how far the log has grown past
// the state it was last compacted to. Callers compact when it passes their
// threshold.
func (j *Journal) TailLen() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tail
}

// Append commits one record: framed write, then fsync (unless NoSync).
// When Append returns nil the record survives a crash; on error the log is
// rolled back to its previous committed length so later appends stay
// parseable. Append has copied data by the time it returns, so the caller
// may reuse or release the buffer; it allocates nothing once its framing
// buffer fits the record.
//
//perf:hotpath
func (j *Journal) Append(typ uint8, data []byte) error {
	if len(data) > MaxRecord {
		return fmt.Errorf("journal: record of %d bytes exceeds limit", len(data))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	n := headerSize + len(data)
	if cap(j.frame) < n {
		//lint:ignore allocfree frame is reused across appends: it grows only until it fits the largest record
		j.frame = make([]byte, n)
	}
	frame := j.frame[:n]
	putHeader(frame, typ, data)
	copy(frame[headerSize:], data)
	if _, err := j.log.Write(frame); err != nil {
		// Roll back a partial write so the on-disk tail stays framed.
		j.log.Truncate(j.off)
		j.log.Seek(j.off, io.SeekStart)
		return fmt.Errorf("journal: append: %w", err)
	}
	if !j.noSync {
		if err := j.log.Sync(); err != nil {
			j.log.Truncate(j.off)
			j.log.Seek(j.off, io.SeekStart)
			return fmt.Errorf("journal: fsync: %w", err)
		}
	}
	j.off += int64(n)
	j.tail++
	return nil
}

// Compact replaces the log with recs — records that replay to the
// caller's whole state — bounding both disk usage and restart replay time.
// They are written to wal.tmp, which is fsynced (unless NoSync), renamed
// over wal.log and then kept as the file later appends go to; the
// directory is fsynced so the rename survives a host crash. The old log is
// untouched until the rename, so a Compact that fails or is cut short by a
// crash loses nothing. Compact does not keep recs.
func (j *Journal) Compact(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	tmpPath := filepath.Join(j.dir, tempName)
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	off, err := writeRecords(tmp, recs)
	if err == nil && !j.noSync {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(j.dir, logName))
	}
	if err != nil {
		_ = tmp.Close() // the compaction error is the one worth reporting
		os.Remove(tmpPath)
		return fmt.Errorf("journal: compact: %w", err)
	}
	if !j.noSync {
		syncDir(j.dir)
	}
	// The old handle's file was unlinked by the rename; nothing in it is
	// needed any more.
	_ = j.log.Close()
	j.log, j.off, j.tail = tmp, off, 0
	return nil
}

// writeRecords frames recs onto w through one buffer and returns the bytes
// written.
func writeRecords(w io.Writer, recs []Record) (int64, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	h := make([]byte, headerSize)
	var off int64
	for _, r := range recs {
		if len(r.Data) > MaxRecord {
			return 0, fmt.Errorf("record of %d bytes exceeds limit", len(r.Data))
		}
		// bufio.Writer errors are sticky: Flush reports the first one.
		putHeader(h, r.Type, r.Data)
		bw.Write(h)
		bw.Write(r.Data)
		off += int64(headerSize + len(r.Data))
	}
	return off, bw.Flush()
}

// Close fsyncs (unless NoSync) and closes the log file. A failed final
// fsync is reported, so a caller that sees nil knows the file reached the
// disk whole, but the file is closed either way.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var syncErr error
	if !j.noSync {
		if err := j.log.Sync(); err != nil {
			syncErr = fmt.Errorf("journal: close fsync: %w", err)
		}
	}
	if err := j.log.Close(); err != nil && syncErr == nil {
		return fmt.Errorf("journal: close: %w", err)
	}
	return syncErr
}

// syncDir makes a rename durable; best-effort (some filesystems reject
// directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		//lint:ignore errdiscipline directory fsync is best-effort: some filesystems reject it, and the rename is already ordered by the file fsync
		d.Sync()
		//lint:ignore errdiscipline read-only directory handle; nothing buffered to lose
		d.Close()
	}
}

// putHeader frames a record of typ carrying data into h[:headerSize]: the
// type, the length, and the checksum over both and the data.
func putHeader(h []byte, typ uint8, data []byte) {
	h[0] = typ
	binary.BigEndian.PutUint32(h[1:5], uint32(len(data)))
	binary.BigEndian.PutUint32(h[5:9], crc32.Update(crc32.Update(0, crcTable, h[:5]), crcTable, data))
}

// decodeRecord parses one record from the front of b, returning the bytes
// consumed. The record's Data aliases b. Any framing or checksum violation
// — including a record cut short by a crash — is an error; the caller
// treats it as the end of the committed log.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, errors.New("journal: torn header")
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if n > MaxRecord {
		return Record{}, 0, errors.New("journal: corrupt length")
	}
	end := headerSize + int(n)
	if len(b) < end {
		return Record{}, 0, errors.New("journal: torn record")
	}
	data := b[headerSize:end:end]
	if crc32.Update(crc32.Update(0, crcTable, b[:5]), crcTable, data) != binary.BigEndian.Uint32(b[5:9]) {
		return Record{}, 0, errors.New("journal: checksum mismatch")
	}
	return Record{Type: b[0], Data: data}, end, nil
}
