// Package journal is the durable round-state log that lets an aggregator
// survive a crash: one append-only, CRC-framed, fsync-on-commit
// write-ahead log file, compacted by rewriting it, built on the stdlib
// only.
//
// An aggregator appends one record per accepted mutation (register, upload,
// aggregate, ...) *before* acknowledging it to the caller, so any state a
// party has seen confirmed is recoverable. On restart, OpenFunc streams
// every committed record in wal.log to a callback, in order, with the
// record's offset: it reads the file once, through one payload buffer
// that grows only to fit the largest record, so recovery costs memory in
// proportion to the records the caller keeps, not to the log. A caller
// that needs a payload only later keeps its offset instead, and ReadAt
// reads it back and checks its checksum again. Open is the same scan,
// copying every record out. A torn or corrupted tail — the expected
// artifact of a crash mid-append — is truncated away silently, recovering
// to the last committed record instead of erroring out.
//
// On-disk format (wal.log):
//
//	record = type(1) | len(4, big-endian) | crc32c(4) | data(len)
//
// where the checksum covers the type byte, the length, and the data, so a
// bit flip anywhere in a record is detected. Every append writes at the
// committed end the journal tracks itself, never at a file position, so a
// failed append's partial frame is overwritten by the next one rather than
// left in front of it. Compact replaces the log with a shorter one holding
// the caller's records: it writes them to wal.tmp, fsyncs it, renames it
// over wal.log and fsyncs the directory, then keeps appending to, and
// reading back from, the renamed file. A crash leaves either the old log
// or the new one, each complete on its own, so there is no window in which
// two files must be combined; a wal.tmp left behind is a compaction that
// never committed, and opening the journal deletes it.
package journal

import (
	"bufio"
	"bytes"
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
	// Records are the committed records of wal.log, in append order, each
	// payload a copy the caller owns.
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
	off    int64 // committed end of wal.log, where the next append writes
	noSync bool
	tail   int // records in wal.log not written by the last Compact
	closed bool
	// frame is append's reused framing buffer: a record's header and
	// payload, written with one write. It grows only until it fits the
	// largest record, so an append allocates nothing.
	frame []byte
}

// Open is OpenFunc collecting a copy of every committed record.
func Open(dir string, opts Options) (*Journal, *Recovered, error) {
	rec := &Recovered{}
	j, truncated, err := OpenFunc(dir, opts, func(r Record, _ int64) error {
		rec.Records = append(rec.Records, Record{Type: r.Type, Data: bytes.Clone(r.Data)})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	rec.Truncated = truncated
	return j, rec, nil
}

// OpenFunc opens (creating if needed) the journal in dir and streams its
// committed records to fn in append order, each with its offset in
// wal.log, which ReadAt takes back. r.Data is valid only during the call:
// the scan reads the file once and reuses one payload buffer, grown only
// to fit the largest record. A torn or corrupted tail is truncated in
// place, so subsequent appends start from the last committed record, and
// reported as truncated. An error from fn stops the scan: OpenFunc closes
// the file, truncates nothing and returns the error as it is. Every
// scanned record counts toward TailLen, so a restart brings the next
// compaction forward, never back.
func OpenFunc(dir string, opts Options, fn func(r Record, at int64) error) (j *Journal, truncated bool, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	// Journals once kept compacted state in a second file. Replaying the
	// log without it would recover a node missing every compacted round,
	// so such a directory is refused rather than half-read.
	old := filepath.Join(dir, "snapshot.bin")
	if _, err := os.Stat(old); err == nil {
		return nil, false, fmt.Errorf("journal: %s is a compaction snapshot this journal no longer reads; its state is not in %s", old, logName)
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	// A leftover temp file is a compaction that never committed: the log
	// beside it is still the whole state.
	os.Remove(filepath.Join(dir, tempName))

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	good, n, truncated, err := scan(f, fn)
	if err == nil && truncated {
		if err = f.Truncate(good); err != nil {
			err = fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if err != nil {
		_ = f.Close() // the scan or truncate error is the one worth reporting
		return nil, false, err
	}
	return &Journal{dir: dir, log: f, off: good, noSync: opts.NoSync, tail: n}, truncated, nil
}

// scan streams f's committed records to fn and returns the end of the
// last one, how many there were, and whether bytes follow it. The first
// record that is cut short, claims more bytes than the file holds, or
// fails its checksum ends the committed log; a length is checked against
// the file before the buffer grows to it, so a corrupted prefix cannot
// drive a giant allocation. A read error, or an error from fn, is
// returned.
func scan(f *os.File, fn func(Record, int64) error) (end int64, n int, torn bool, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, false, fmt.Errorf("journal: %w", err)
	}
	size := st.Size()
	br := bufio.NewReaderSize(f, 64<<10)
	var h [headerSize]byte
	var buf []byte
	for end < size {
		if size-end < headerSize {
			return end, n, true, nil
		}
		if _, err := io.ReadFull(br, h[:]); err != nil {
			return end, n, false, fmt.Errorf("journal: reading %s: %w", logName, err)
		}
		length := int64(binary.BigEndian.Uint32(h[1:5]))
		if length > MaxRecord || length > size-end-headerSize {
			return end, n, true, nil
		}
		if int64(cap(buf)) < length {
			buf = make([]byte, length)
		}
		data := buf[:length:length]
		if _, err := io.ReadFull(br, data); err != nil {
			return end, n, false, fmt.Errorf("journal: reading %s: %w", logName, err)
		}
		if checksum(h[:], data) != binary.BigEndian.Uint32(h[5:9]) {
			return end, n, true, nil
		}
		if err := fn(Record{Type: h[0], Data: data}, end); err != nil {
			return end, n, false, err
		}
		end += headerSize + length
		n++
	}
	return end, n, false, nil
}

// ReadAt re-reads the committed record at offset at, as OpenFunc handed
// it out, and checks its checksum again. Its Data is buf[:len] when buf
// has the capacity and a new buffer otherwise; either may be passed back
// as buf to reuse it. Any mismatch — an offset past the committed end, a
// length overrunning it, a checksum that fails — is an error naming the
// offset: the record was committed once, so the log is never truncated
// here.
func (j *Journal) ReadAt(at int64, buf []byte) (Record, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return Record{}, ErrClosed
	}
	if at < 0 || at > j.off-headerSize {
		return Record{}, fmt.Errorf("journal: no record at offset %d of %d committed bytes", at, j.off)
	}
	var h [headerSize]byte
	if _, err := j.log.ReadAt(h[:], at); err != nil {
		return Record{}, fmt.Errorf("journal: record at offset %d: %w", at, err)
	}
	length := int64(binary.BigEndian.Uint32(h[1:5]))
	if length > j.off-at-headerSize {
		return Record{}, fmt.Errorf("journal: record at offset %d: length %d overruns %d committed bytes", at, length, j.off)
	}
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	}
	data := buf[:length]
	if _, err := j.log.ReadAt(data, at+headerSize); err != nil {
		return Record{}, fmt.Errorf("journal: record at offset %d: %w", at, err)
	}
	if checksum(h[:], data) != binary.BigEndian.Uint32(h[5:9]) {
		return Record{}, fmt.Errorf("journal: record at offset %d: checksum mismatch", at)
	}
	return Record{Type: h[0], Data: data}, nil
}

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
	if _, err := j.log.WriteAt(frame, j.off); err != nil {
		// Cut a partial write off so the on-disk tail stays framed. Should
		// the cut fail too, the next append still writes at j.off, over
		// the partial frame.
		j.log.Truncate(j.off)
		return fmt.Errorf("journal: append: %w", err)
	}
	if !j.noSync {
		if err := j.log.Sync(); err != nil {
			j.log.Truncate(j.off)
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
// over wal.log and then kept as the file later appends and reads go to; the
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
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
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
	binary.BigEndian.PutUint32(h[5:9], checksum(h, data))
}

// checksum is the CRC a record header h stores for its type, its length
// and data.
func checksum(h, data []byte) uint32 {
	return crc32.Update(crc32.Update(0, crcTable, h[:5]), crcTable, data)
}
