package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, j *Journal, typ uint8, data []byte) {
	t.Helper()
	if err := j.Append(typ, data); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAndRecover(t *testing.T) {
	dir := t.TempDir()
	j, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 0 || rec.Truncated {
		t.Fatalf("fresh journal recovered %+v", rec)
	}
	for i := 0; i < 10; i++ {
		mustAppend(t, j, uint8(i%3+1), []byte(fmt.Sprintf("record-%d", i)))
	}
	if got := j.TailLen(); got != 10 {
		t.Fatalf("tail = %d, want 10", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(rec.Records) != 10 || rec.Truncated {
		t.Fatalf("recovered %d records (truncated=%v), want 10", len(rec.Records), rec.Truncated)
	}
	for i, r := range rec.Records {
		if want := fmt.Sprintf("record-%d", i); string(r.Data) != want || r.Type != uint8(i%3+1) {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, r.Type, r.Data, i%3+1, want)
		}
	}
	// Appends after recovery land after the recovered tail.
	mustAppend(t, j2, 7, []byte("post-recovery"))
	if got := j2.TailLen(); got != 11 {
		t.Fatalf("tail = %d, want 11", got)
	}
}

func TestEmptyAndZeroLengthRecords(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, nil)
	mustAppend(t, j, 2, []byte{})
	j.Close()
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2", len(rec.Records))
	}
}

// frame returns the on-disk bytes of one record of typ carrying data.
func frame(typ uint8, data []byte) []byte {
	b := make([]byte, headerSize+len(data))
	putHeader(b, typ, data)
	copy(b[headerSize:], data)
	return b
}

// An append copies its record into the journal's reused framing buffer:
// past the first record of its size it allocates nothing, however large.
func TestAppendAllocatesNothing(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	data := bytes.Repeat([]byte{0xA5}, 175<<10)
	mustAppend(t, j, 8, data) // warm-up: sizes the framing buffer
	if allocs := testing.AllocsPerRun(20, func() { mustAppend(t, j, 8, data) }); allocs != 0 {
		t.Fatalf("Append of a %d-byte record allocates %.1f times, want 0", len(data), allocs)
	}
}

// decodeRecord parses one record from the front of b, returning the bytes
// consumed. The record's Data aliases b.
func decodeRecord(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, errors.New("torn header")
	}
	end := headerSize + int(binary.BigEndian.Uint32(b[1:5]))
	if len(b) < end {
		return Record{}, 0, errors.New("torn record")
	}
	data := b[headerSize:end:end]
	if checksum(b, data) != binary.BigEndian.Uint32(b[5:9]) {
		return Record{}, 0, errors.New("checksum mismatch")
	}
	return Record{Type: b[0], Data: data}, end, nil
}

// readLog decodes every record in dir's wal.log as it is on disk now.
func readLog(t *testing.T, dir string) []Record {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for off := 0; off < len(b); {
		r, n, err := decodeRecord(b[off:])
		if err != nil {
			t.Fatalf("wal.log at byte %d: %v", off, err)
		}
		recs = append(recs, r)
		off += n
	}
	return recs
}

func wantRecords(t *testing.T, got []Record, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d records, want %d: %q", len(got), len(want), got)
	}
	for i, r := range got {
		if string(r.Data) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want[i])
		}
	}
}

// Compact replaces the log with the records it is given; a reopen replays
// them and then whatever was appended after.
func TestCompactSnapshotAndReplay(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, j, 1, []byte(fmt.Sprintf("pre-%d", i)))
	}
	if err := j.Compact([]Record{{Type: 3, Data: []byte("state-a")}, {Type: 4, Data: []byte("state-b")}}); err != nil {
		t.Fatal(err)
	}
	if got := j.TailLen(); got != 0 {
		t.Fatalf("tail after compact = %d, want 0", got)
	}
	mustAppend(t, j, 2, []byte("post-compact"))
	if got := j.TailLen(); got != 1 {
		t.Fatalf("tail = %d, want 1", got)
	}
	j.Close()

	j2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	wantRecords(t, rec.Records, "state-a", "state-b", "post-compact")
	if rec.Records[0].Type != 3 || rec.Records[1].Type != 4 || rec.Records[2].Type != 2 {
		t.Fatalf("record types %d %d %d, want 3 4 2", rec.Records[0].Type, rec.Records[1].Type, rec.Records[2].Type)
	}
	// A restart counts what it read as tail.
	if got := j2.TailLen(); got != 3 {
		t.Fatalf("tail after reopen = %d, want 3", got)
	}
}

// Appends made after Compact go to the renamed file, not the unlinked old
// log: they are in wal.log before any reopen, and they survive one.
func TestAppendAfterCompactSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("old"))
	for round := 0; round < 3; round++ {
		if err := j.Compact([]Record{{Type: 1, Data: []byte("state")}}); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, j, 2, []byte("after"))
		wantRecords(t, readLog(t, dir), "state", "after")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("journal directory holds %v, want only %s", entries, logName)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec.Records, "state", "after")
}

// A wal.tmp left by a compaction that never committed is deleted by Open,
// and the log beside it is recovered whole.
func TestCompactIsAtomic(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("r"))
	if err := j.Compact([]Record{{Type: 1, Data: []byte("snap-1")}}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("r2"))
	j.Close()
	// What a crash mid-compaction leaves: a partial temp file holding the
	// start of a valid record.
	partial := frame(1, []byte("snap-2"))[:headerSize+2]
	if err := os.WriteFile(filepath.Join(dir, tempName), partial, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec.Records, "snap-1", "r2")
	if _, err := os.Stat(filepath.Join(dir, tempName)); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp file survived Open")
	}
}

// A failed Compact leaves the log and the append handle as they were.
func TestCompactFailureKeepsLog(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, 1, []byte("kept"))
	// A directory where the temp file goes makes the compaction fail.
	if err := os.Mkdir(filepath.Join(dir, tempName), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := j.Compact([]Record{{Type: 1, Data: []byte("state")}}); err == nil {
		t.Fatal("compaction into an unwritable temp path succeeded")
	}
	mustAppend(t, j, 1, []byte("after"))
	wantRecords(t, readLog(t, dir), "kept", "after")
	if got := j.TailLen(); got != 2 {
		t.Fatalf("tail after failed compaction = %d, want 2", got)
	}
}

// A directory still holding the second file of the retired two-file
// format is refused by name: replaying wal.log alone would recover a node
// without its compacted rounds.
func TestOpenRefusesSnapshotFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.bin"), frame(0, []byte("gob state")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "snapshot.bin") {
		t.Fatalf("Open beside snapshot.bin: err = %v, want one naming the file", err)
	}
}

// A crash mid-append leaves a torn tail; recovery must return every record
// up to the last committed one and let appends continue from there.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mustAppend(t, j, 1, []byte(fmt.Sprintf("rec-%d", i)))
	}
	j.Close()

	logPath := filepath.Join(dir, logName)
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, headerSize - 1, headerSize + 2} {
		// Simulate a torn append: full log plus a partial frame.
		torn := append(append([]byte{}, b...), b[:cut]...)
		if err := os.WriteFile(logPath, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Records) != 4 || !rec.Truncated {
			t.Fatalf("cut %d: recovered %d records (truncated=%v), want 4 truncated",
				cut, len(rec.Records), rec.Truncated)
		}
		// The torn bytes must be gone so the next append stays parseable.
		mustAppend(t, j2, 9, []byte("after-tear"))
		j2.Close()
		_, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rec2.Records); n != 5 || string(rec2.Records[4].Data) != "after-tear" {
			t.Fatalf("cut %d: post-tear append lost (%d records)", cut, n)
		}
		if err := os.WriteFile(logPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A flipped bit anywhere in the tail record must be caught by the CRC and
// recovered past, keeping every record before it.
func TestCorruptTailDetected(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, j, 1, bytes.Repeat([]byte{byte(i + 1)}, 20))
	}
	j.Close()
	logPath := filepath.Join(dir, logName)
	orig, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	recLen := len(orig) / 3
	for _, pos := range []int{0, 1, 5, headerSize, recLen - 1} {
		b := append([]byte{}, orig...)
		b[2*recLen+pos] ^= 0x40 // corrupt the last record
		if err := os.WriteFile(logPath, b, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("pos %d: %v", pos, err)
		}
		j2.Close()
		if len(rec.Records) != 2 || !rec.Truncated {
			t.Fatalf("pos %d: recovered %d records (truncated=%v), want 2 truncated",
				pos, len(rec.Records), rec.Truncated)
		}
	}
}

func TestClosedJournalRejectsAppends(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(1, []byte("x")); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := j.Compact(nil); err != ErrClosed {
		t.Fatalf("compact after close = %v, want ErrClosed", err)
	}
}

// FuzzRecoverTail feeds arbitrary mutations of a valid log tail into Open:
// whatever the damage, recovery must never error, never return a record
// that was not committed, and always keep the journal appendable.
func FuzzRecoverTail(f *testing.F) {
	f.Add(uint16(0), byte(0xff))
	f.Add(uint16(5), byte(0x01))
	f.Add(uint16(9), byte(0x80))
	f.Add(uint16(1000), byte(0x55))
	// Cuts landing inside the trailing churn records (types 10/11 below).
	f.Add(uint16(80), byte(0x00))
	f.Add(uint16(101), byte(0x40))
	// recTypes mirrors the record sequence a churn-heavy aggregator writes
	// — register, upload, quorum, evict, rejoin, fused round (the core
	// package's record-type values; not imported to avoid a cycle) — so
	// damaged tails are exercised against the live type set rather than a
	// synthetic 1..6 ramp.
	recTypes := []uint8{1, 8, 5, 10, 11, 9}
	f.Fuzz(func(t *testing.T, cut uint16, flip byte) {
		dir := t.TempDir()
		j, _, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		want := make([][]byte, len(recTypes))
		for i := range want {
			want[i] = bytes.Repeat([]byte{byte(i)}, 10+i)
			if err := j.Append(recTypes[i], want[i]); err != nil {
				t.Fatal(err)
			}
		}
		j.Close()
		logPath := filepath.Join(dir, logName)
		b, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		// Damage: truncate at cut and/or xor a byte there.
		pos := int(cut) % (len(b) + 1)
		damaged := append([]byte{}, b[:pos]...)
		if pos > 0 && flip != 0 {
			damaged[pos-1] ^= flip
		}
		if err := os.WriteFile(logPath, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		j2, rec, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("recovery errored on damaged tail: %v", err)
		}
		if len(rec.Records) > len(want) {
			t.Fatalf("recovered %d records from a log of %d", len(rec.Records), len(want))
		}
		for i, r := range rec.Records {
			// Every surviving record must be a committed prefix entry —
			// unless the flipped byte happened to keep the CRC valid,
			// which a 32-bit checksum makes effectively impossible here.
			if r.Type != recTypes[i] || !bytes.Equal(r.Data, want[i]) {
				t.Fatalf("record %d mutated: {%d %q}", i, r.Type, r.Data)
			}
		}
		if err := j2.Append(99, []byte("alive")); err != nil {
			t.Fatalf("append after damaged-tail recovery: %v", err)
		}
		j2.Close()
		_, rec2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(rec2.Records); n != len(rec.Records)+1 {
			t.Fatalf("post-recovery append lost: %d records, want %d", n, len(rec.Records)+1)
		}
		// The streaming scan hands out what Open copied, and every offset
		// it hands out reads back through ReadAt to the same record.
		var offs []int64
		i := 0
		j3, _, err := OpenFunc(dir, Options{NoSync: true}, func(r Record, at int64) error {
			if i >= len(rec2.Records) || r.Type != rec2.Records[i].Type || !bytes.Equal(r.Data, rec2.Records[i].Data) {
				t.Fatalf("scan record %d = {%d %q}, Open copied %d records", i, r.Type, r.Data, len(rec2.Records))
			}
			offs = append(offs, at)
			i++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer j3.Close()
		var buf []byte
		for i, at := range offs {
			r, err := j3.ReadAt(at, buf)
			if err != nil {
				t.Fatalf("record %d at offset %d: %v", i, at, err)
			}
			if r.Type != rec2.Records[i].Type || !bytes.Equal(r.Data, rec2.Records[i].Data) {
				t.Fatalf("record %d at offset %d read back as {%d %q}", i, at, r.Type, r.Data)
			}
			buf = r.Data
		}
	})
}

// scanOffsets opens dir's journal with OpenFunc and returns the offset of
// every record the scan handed out.
func scanOffsets(t *testing.T, dir string) (*Journal, []int64) {
	t.Helper()
	var offs []int64
	j, _, err := OpenFunc(dir, Options{NoSync: true}, func(_ Record, at int64) error {
		offs = append(offs, at)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return j, offs
}

// A payload byte flipped on disk after the scan makes ReadAt fail naming
// the offset, and wal.log keeps its length: a record that was committed
// once is never truncated away.
func TestReadAtDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, j, 8, bytes.Repeat([]byte{byte(i + 1)}, 40))
	}
	j.Close()
	j, offs := scanOffsets(t, dir)
	defer j.Close()
	logPath := filepath.Join(dir, logName)
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, offs[1]+headerSize+7); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = j.ReadAt(offs[1], nil)
	if want := fmt.Sprintf("offset %d", offs[1]); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadAt of a flipped record: err = %v, want one naming %q", err, want)
	}
	for _, at := range []int64{offs[0], offs[2]} {
		if _, err := j.ReadAt(at, nil); err != nil {
			t.Fatalf("intact record at offset %d: %v", at, err)
		}
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("wal.log is %d bytes after a failed read-back, was %d", after.Size(), before.Size())
	}
	for _, at := range []int64{-1, offs[2] + 1, before.Size()} {
		if _, err := j.ReadAt(at, nil); err == nil {
			t.Fatalf("ReadAt(%d) of a log of %d bytes succeeded", at, before.Size())
		}
	}
}

// The file Compact installs is read back through as well as appended to.
func TestReadAtAfterCompact(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, 1, []byte("old"))
	if err := j.Compact([]Record{{Type: 3, Data: []byte("state")}}); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 2, []byte("after"))
	for _, want := range []struct {
		at   int64
		typ  uint8
		data string
	}{{0, 3, "state"}, {headerSize + 5, 2, "after"}} {
		r, err := j.ReadAt(want.at, nil)
		if err != nil {
			t.Fatalf("ReadAt(%d) after compaction: %v", want.at, err)
		}
		if r.Type != want.typ || string(r.Data) != want.data {
			t.Fatalf("ReadAt(%d) = {%d %q}, want {%d %q}", want.at, r.Type, r.Data, want.typ, want.data)
		}
	}
}

// Append writes at the committed end the journal tracks, whatever the
// file position: a position moved past the end — what a failed rollback
// used to leave — must not put a hole in front of the next record.
func TestAppendWritesAtCommittedEnd(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("first"))
	if _, err := j.log.Seek(100, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("second"))
	j.Close()
	_, rec, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatal("recovery truncated a log of two committed records")
	}
	wantRecords(t, rec.Records, "first", "second")
}

// An error from the callback stops the scan and is returned as it is; the
// log is not truncated.
func TestOpenFuncStopsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		mustAppend(t, j, 1, []byte{byte(i)})
	}
	j.Close()
	stop := errors.New("stop")
	seen := 0
	if _, _, err := OpenFunc(dir, Options{NoSync: true}, func(Record, int64) error {
		seen++
		if seen == 2 {
			return stop
		}
		return nil
	}); err != stop || seen != 2 {
		t.Fatalf("OpenFunc = %v after %d records, want the callback's error after 2", err, seen)
	}
	_, rec, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 3 {
		t.Fatalf("log holds %d records after a stopped scan, want 3", len(rec.Records))
	}
}

// Regression: Close must report a failed final fsync instead of discarding
// it — a caller that sees Close() == nil is entitled to believe the log
// reached the disk.
func TestCloseReportsSyncError(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, 1, []byte("committed"))
	// Sabotage the handle underneath the journal: Sync on a closed file
	// fails with ErrClosed, exactly like a device-level fsync failure
	// would surface.
	if err := j.log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err == nil {
		t.Fatal("Close swallowed the final fsync error")
	}
	// The journal is closed regardless; later operations see ErrClosed.
	if err := j.Append(2, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after failed close: %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}
