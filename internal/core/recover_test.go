package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// provisionCVM boots one CVM through BootAggregatorCVM, returning it so a
// "restarted process" can build a fresh node against the same journal.
func provisionCVM(t testing.TB, ap *APClient, id string) *sev.CVM {
	t.Helper()
	cvm, err := BootAggregatorCVM(context.Background(), ap, id)
	if err != nil {
		t.Fatal(err)
	}
	return cvm
}

// testAP serves an in-process AP (ServeAP) until the test ends.
func testAP(t testing.TB) *APClient {
	t.Helper()
	_, ap, stop, err := ServeAP()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return ap
}

// Satellite regression: an identical re-upload (the retry after an
// ambiguous RPC failure) succeeds silently; only a conflicting fragment —
// or the same fragment with a different weight — is a duplicate error.
func TestUploadIdempotentRetry(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-idem")
	node, err := NewAggregatorNode("agg-idem", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	frag := tensor.Vector{1.5, -2.25, 3}
	if err := node.Upload(1, "P1", frag, 4); err != nil {
		t.Fatal(err)
	}
	// Identical retry: success, and the stored fragment is unchanged.
	if err := node.Upload(1, "P1", frag.Clone(), 4); err != nil {
		t.Fatalf("identical re-upload rejected: %v", err)
	}
	if got := node.LeakRoundFragments(1)["P1"]; !slices.Equal(got, frag) {
		t.Fatalf("retry mutated stored fragment: %v", got)
	}
	// Conflicting fragment: rejected.
	if err := node.Upload(1, "P1", tensor.Vector{9, 9, 9}, 4); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("conflicting re-upload = %v, want ErrDuplicateUpload", err)
	}
	// Same fragment, different weight: also a conflict.
	if err := node.Upload(1, "P1", frag, 5); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("weight-conflicting re-upload = %v, want ErrDuplicateUpload", err)
	}
}

func TestAggregateIdempotent(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-re")
	node, err := NewAggregatorNode("agg-re", agg.IterativeAverage{}, cvm)
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	if err := node.Upload(1, "P1", tensor.Vector{2, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	first, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	// A re-driven sync (initiator restarted) must be a no-op.
	if err := node.Aggregate(1); err != nil {
		t.Fatalf("re-aggregate: %v", err)
	}
	second, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(first, second) {
		t.Fatalf("re-aggregate changed the fused vector: %v vs %v", first, second)
	}
}

// The tentpole invariant: everything an aggregator acknowledged —
// registrations, fragments, the fused vector — survives a crash/restart
// via the journal, so parties can re-download after recovery.
func TestRecoverAggregatorNode(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()

	cvm := provisionCVM(t, ap, "agg-r")
	node, info, err := RecoverAggregatorNode("agg-r", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Parties != 0 || info.Rounds != 0 {
		t.Fatalf("fresh journal recovered state: %+v", info)
	}
	node.Register("P1")
	node.Register("P2")
	node.SetQuorum(2)
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Upload(1, "P2", tensor.Vector{3, 4}, 3); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	wantFused, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	// Round 2 in flight: one of two uploads when the crash hits.
	if err := node.Upload(2, "P1", tensor.Vector{5, 6}, 1); err != nil {
		t.Fatal(err)
	}

	// "Crash": drop the node, restart from the journal with a freshly
	// attested CVM (trust state is re-established by Phase I, round state
	// by the journal).
	node.CloseJournal()
	cvm2 := provisionCVM(t, ap, "agg-r2")
	node2, info, err := RecoverAggregatorNode("agg-r", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Parties != 2 || info.Rounds != 2 || info.Aggregated != 1 || info.LastAggregated != 1 {
		t.Fatalf("recovery info = %+v", info)
	}
	if got := node2.NumParties(); got != 2 {
		t.Fatalf("recovered %d parties", got)
	}
	// The aggregated round is re-downloadable, bit-identical.
	got, err := node2.Download(1, "P2")
	if err != nil {
		t.Fatalf("download after recovery: %v", err)
	}
	if !slices.Equal(got, wantFused) {
		t.Fatalf("recovered fused vector %v, want %v", got, wantFused)
	}
	// The in-flight round resumes: P1's fragment survived, P2 completes it.
	if err := node2.Aggregate(2); !errors.Is(err, ErrRoundIncomplete) {
		t.Fatalf("half-uploaded round after recovery: aggregate = %v, want ErrRoundIncomplete", err)
	}
	if err := node2.Upload(2, "P1", tensor.Vector{5, 6}, 1); err != nil {
		t.Fatalf("identical re-upload after recovery: %v", err)
	}
	if err := node2.Upload(2, "P2", tensor.Vector{7, 8}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node2.Aggregate(2); err != nil {
		t.Fatal(err)
	}
	if node2.LastAggregatedRound() != 2 {
		t.Fatalf("last aggregated = %d, want 2", node2.LastAggregatedRound())
	}
	node2.CloseJournal()
}

// compactedLogTypes returns the record types of the closed journal in dir,
// failing unless a compaction wrote it: dir holds only wal.log, and the
// log starts with a quorum record, which only a compaction writes for a
// node that never set one.
func compactedLogTypes(t *testing.T, dir string) []uint8 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal.log" {
		t.Fatalf("journal directory holds %v, want only wal.log", entries)
	}
	j, rec, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	types := make([]uint8, len(rec.Records))
	for i, r := range rec.Records {
		types[i] = r.Type
	}
	if len(types) == 0 || types[0] != recQuorum {
		t.Fatalf("log holds record types %v, not a compaction's rewrite", types)
	}
	return types
}

// Compaction must preserve recoverability while keeping the log short: a
// node whose journal was rewritten many times over recovers every round,
// from a directory holding nothing but wal.log.
func TestRecoverAfterCompaction(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, ap, "agg-c")
	node, _, err := RecoverAggregatorNode("agg-c", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.SetCompactEvery(8) // force frequent compaction
	node.Register("P1")
	const rounds = 20
	for r := 1; r <= rounds; r++ {
		if err := node.Upload(r, "P1", tensor.Vector{float64(r), float64(2 * r)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
	}
	node.CloseJournal()
	compactedLogTypes(t, dir) // the log was rewritten along the way

	cvm2 := provisionCVM(t, ap, "agg-c2")
	node2, info, err := RecoverAggregatorNode("agg-c", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds != rounds || info.Aggregated != rounds {
		t.Fatalf("recovered %d rounds (%d aggregated), want %d", info.Rounds, info.Aggregated, rounds)
	}
	for r := 1; r <= rounds; r++ {
		got, err := node2.Download(r, "P1")
		if err != nil {
			t.Fatalf("round %d after compacted recovery: %v", r, err)
		}
		if want := (tensor.Vector{float64(r), float64(2 * r)}); !slices.Equal(got, want) {
			t.Fatalf("round %d = %v, want %v", r, got, want)
		}
	}
	node2.CloseJournal()
}

// A crash mid-append leaves a torn journal tail; the node must recover to
// the last committed record, flag it, and keep serving.
func TestRecoverTornJournalTail(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, ap, "agg-t")
	node, _, err := RecoverAggregatorNode("agg-t", agg.IterativeAverage{}, cvm, dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	node.CloseJournal()

	// Tear the tail: append half a garbage frame.
	logPath := filepath.Join(dir, "wal.log")
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x02, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cvm2 := provisionCVM(t, ap, "agg-t2")
	node2, info, err := RecoverAggregatorNode("agg-t", agg.IterativeAverage{}, cvm2, dir, journal.Options{})
	if err != nil {
		t.Fatalf("torn tail made recovery fail: %v", err)
	}
	if !info.TornTail {
		t.Fatal("torn tail not reported")
	}
	if got := node2.LeakRoundFragments(1)["P1"]; !slices.Equal(got, tensor.Vector{1, 2}) {
		t.Fatalf("committed upload lost under torn tail: %v", got)
	}
	if err := node2.Upload(1, "P2", tensor.Vector{9, 9}, 1); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("unexpected: %v", err) // P2 never registered; sanity that serving continues
	}
	node2.CloseJournal()
}

// An upload that retention keeps is read back from the log after the scan.
// If its bytes no longer check out by then, recovery fails as a replay
// error naming the record's offset; it does not truncate the log, since
// the scan already found the record committed.
func TestRecoverFailsOnDamagedReadBack(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-rb", agg.IterativeAverage{}, provisionCVM(t, ap, "agg-rb"), dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	node.Register("P1")
	if err := node.Upload(1, "P1", tensor.Vector{1, 2, 3}, 1); err != nil {
		t.Fatal(err)
	}
	node.CloseJournal()
	logPath := filepath.Join(dir, "wal.log")
	before, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The upload is the last record; flip its final value byte.
	testHookReplayed = func() {
		f, err := os.OpenFile(logPath, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		b := []byte{0}
		if _, err := f.ReadAt(b, before.Size()-1); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x10
		if _, err := f.WriteAt(b, before.Size()-1); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { testHookReplayed = nil }()
	_, _, err = RecoverAggregatorNode("agg-rb", agg.IterativeAverage{}, provisionCVM(t, ap, "agg-rb2"), dir, journal.Options{NoSync: true})
	if err == nil || !strings.Contains(err.Error(), "replaying journal: ") || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("recovery over a damaged surviving upload: err = %v, want a replay checksum error", err)
	}
	after, err := os.Stat(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("wal.log is %d bytes after the failed recovery, was %d", after.Size(), before.Size())
	}
}

// Recovery allocates in proportion to the state it restores, not to the
// log: over a log of about 500 records at retention 4, the shape of the
// wal_restart benchmark, it allocates at most twice the fragment bytes the
// recovered node holds, plus a fixed slack. Replaying by decoding every
// upload the log holds allocates about fifteen times that. Not parallel:
// it reads the process-wide allocation counter.
func TestRecoveryAllocatesForLiveState(t *testing.T) {
	const (
		parties = 12
		params  = 4096
		rounds  = 36 // fused, then one more round's uploads, as a crash leaves them
		slack   = 256 << 10
	)
	ap := testAP(t)
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-alloc", agg.IterativeAverage{}, provisionCVM(t, ap, "agg-alloc"), dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	node.SetRetention(4)
	node.SetCompactEvery(1 << 30)
	frag := make(tensor.Vector, params)
	for p := 0; p < parties; p++ {
		node.Register(fmt.Sprintf("P%02d", p))
	}
	for r := 1; r <= rounds+1; r++ {
		for p := 0; p < parties; p++ {
			for i := range frag {
				frag[i] = float64(r*parties + p + i)
			}
			if err := node.Upload(r, fmt.Sprintf("P%02d", p), frag, 1); err != nil {
				t.Fatal(err)
			}
		}
		if r <= rounds {
			if err := node.Aggregate(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := durableStateOf(t, node)
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}
	j, rec, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Records); n < 450 {
		t.Fatalf("log holds %d records, want at least 450", n)
	}
	rec = nil

	cvm := provisionCVM(t, ap, "agg-alloc2")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	node2, _, err := RecoverAggregatorNode("agg-alloc", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.CloseJournal()
	if got := durableStateOf(t, node2); !reflect.DeepEqual(got, want) {
		t.Fatal("recovered state differs from the live node's")
	}
	held := 0
	node2.mu.Lock()
	for _, rs := range node2.rounds {
		held += len(rs.aggregated)
		for _, u := range rs.uploads {
			held += 8 * len(u.frag)
		}
	}
	node2.mu.Unlock()
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("recovery allocated %d KiB for %d KiB of fragments held", alloc>>10, held>>10)
	if alloc > uint64(2*held+slack) {
		t.Fatalf("recovery allocated %d KiB for %d KiB of fragments held; bound 2x + %d KiB", alloc>>10, held>>10, slack>>10)
	}
}

// Satellite: with a retention bound, the rounds map does not grow without
// bound over 100 rounds — and evicted rounds are still in the journal.
func TestRetentionBoundsMemoryOver100Rounds(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()
	cvm := provisionCVM(t, ap, "agg-m")
	node, _, err := RecoverAggregatorNode("agg-m", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	const retain = 5
	node.SetRetention(retain)
	node.Register("P1")
	for r := 1; r <= 100; r++ {
		if err := node.Upload(r, "P1", tensor.Vector{float64(r)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
		if held := node.RoundsHeld(); held > retain {
			t.Fatalf("round %d: %d rounds in memory, retention %d", r, held, retain)
		}
	}
	// Old rounds are gone from memory...
	if _, err := node.Download(1, "P1"); !errors.Is(err, ErrNotAggregated) {
		t.Fatalf("evicted round still in memory: %v", err)
	}
	// ...recent ones are not.
	if got, err := node.Download(100, "P1"); err != nil || !slices.Equal(got, tensor.Vector{100}) {
		t.Fatalf("retained round: %v, %v", got, err)
	}
	node.CloseJournal()

	// Recovery replays to the same bounded state, not 100 rounds.
	cvm2 := provisionCVM(t, ap, "agg-m2")
	node2, info, err := RecoverAggregatorNode("agg-m", agg.IterativeAverage{}, cvm2, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Rounds > retain {
		t.Fatalf("recovery rebuilt %d rounds despite retention %d", info.Rounds, retain)
	}
	if node2.LastAggregatedRound() != 100 {
		t.Fatalf("last aggregated after recovery = %d", node2.LastAggregatedRound())
	}
	node2.CloseJournal()
}

// Satellite: DownloadAll's backoff poll honors context cancellation — a
// cancelled party returns promptly instead of sleeping out its schedule.
func TestDownloadAllCancellationPrompt(t *testing.T) {
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-cancel")
	node.Register("P1")
	// Never aggregated: DownloadAll will poll until cancelled.
	client := serveNode(t, node)
	fleet := &Fleet{Clients: []*AggregatorClient{client}}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := fleet.DownloadAll(ctx, 1, "P1", nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled DownloadAll succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if elapsed > time.Second {
		t.Fatalf("cancellation took %v — poll not honoring ctx", elapsed)
	}
}

// DownloadAll's backoff must still deliver promptly once the round fuses.
func TestDownloadAllBackoffDelivers(t *testing.T) {
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-bk")
	node.Register("P1")
	client := serveNode(t, node)
	fleet := &Fleet{Clients: []*AggregatorClient{client}}
	go func() {
		time.Sleep(20 * time.Millisecond)
		node.Upload(1, "P1", tensor.Vector{4, 8}, 1)
		node.Aggregate(1)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	frags, err := fleet.DownloadAll(ctx, 1, "P1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(frags[0], tensor.Vector{4, 8}) {
		t.Fatalf("downloaded %v", frags[0])
	}
}

// A client with Redial configured survives its aggregator being killed and
// restarted on a fresh listener: the next call transparently reconnects.
func TestAggregatorClientRedial(t *testing.T) {
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-rd")
	node.Register("P1")

	serve := func() (*transport.Server, *transport.MemListener) {
		srv := transport.NewServer()
		ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		return srv, ln
	}
	srv, ln := serve()
	var mu sync.Mutex
	currentLn := ln

	client := &AggregatorClient{
		ID: "agg-rd",
		Redial: func(context.Context) (net.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			return currentLn.Dial()
		},
	}
	ctx := context.Background()
	// First call dials lazily. The second fails on the live connection.
	if err := client.Upload(ctx, 1, "P1", tensor.Vector{1}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(ctx, 1, "ghost", tensor.Vector{1}, 0, 1); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("ghost upload = %v, want ErrNotRegistered", err)
	}
	// Kill and restart the aggregator server.
	srv.Close()
	srv2, ln2 := serve()
	defer srv2.Close()
	mu.Lock()
	currentLn = ln2
	mu.Unlock()

	// The old connection is dead; the call may fail once while the sticky
	// error is discovered, then the redial path must succeed.
	var err error
	failed := 0
	for attempt := 0; attempt < 3; attempt++ {
		if err = client.Upload(ctx, 1, "P1", tensor.Vector{1}, 0, 1); err == nil {
			break
		}
		failed++
	}
	if err != nil {
		t.Fatalf("upload after restart (with redial): %v", err)
	}
	// The link's counters outlive its connections: the two calls before
	// the restart, the attempts that failed on the dead connection and the
	// one that succeeded on the fresh one.
	st := client.Stats()
	if st.Calls != int64(3+failed) || st.Failures != int64(1+failed) {
		t.Fatalf("after redial: calls=%d failures=%d, want %d and %d", st.Calls, st.Failures, 3+failed, 1+failed)
	}
	client.C.Close()
}

// Regression: compaction must not let Go's randomized map iteration order
// reach the disk. Compacting the same state repeatedly — forty parties,
// rounds with several uploads, an evicted party — must write the same
// bytes every time.
func TestSnapshotPartiesSorted(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-snap")
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-snap", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.CloseJournal()
	clk := NewFakeClock(time.Unix(1_700_000_000, 0))
	node.SetClock(clk)
	node.SetLiveness(time.Second, 2*time.Second)
	for i := 0; i < 40; i++ {
		node.Register(fmt.Sprintf("P%02d", i))
	}
	clk.Advance(time.Second)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 40; i++ {
			if err := node.Upload(round, fmt.Sprintf("P%02d", i), tensor.Vector{float64(i), float64(round)}, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	node.Register("silent")
	clk.Advance(2 * time.Second)
	if got := node.Tick(); len(got) != 41 {
		t.Fatalf("tick evicted %d parties, want all 41", len(got))
	}
	var first []byte
	for trial := 0; trial < 5; trial++ {
		node.mu.Lock()
		recs, err := node.compactRecordsLocked()
		if err == nil {
			err = node.journal.Compact(recs)
		}
		node.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = b
		} else if !bytes.Equal(b, first) {
			t.Fatalf("trial %d: compacting the same state wrote different bytes", trial)
		}
	}
}

// TestUploadJournalFailureLeavesNoPhantomRound pins what each record type
// does once the journal is dead (closed under the node, as a full disk or
// torn-away volume would fail it) — the contract commitLocked encodes.
// Uploads and fusions are acknowledged only once durable, so they fail
// with journal.ErrClosed and change nothing: in particular the first
// upload of a new round leaves no phantom round, and an upload into an
// open round stores no fragment the journal never saw. Membership and
// configuration changes are self-healing after a crash, so they still
// take effect in memory, and a download of a fused round still succeeds,
// because a download never touches the journal.
func TestUploadJournalFailureLeavesNoPhantomRound(t *testing.T) {
	ap := testAP(t)
	// deadJournalNode: P1–P3 fused round 1, P1 and P2 filled round 2, P1
	// opened round 3, P3 was evicted, and then the journal died.
	deadJournalNode := func(t *testing.T, id string) (*AggregatorNode, *FakeClock) {
		node, _, err := RecoverAggregatorNode(id, agg.IterativeAverage{}, provisionCVM(t, ap, id), t.TempDir(), journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		clk := NewFakeClock(time.Unix(1_700_000_000, 0))
		node.SetClock(clk)
		node.SetLiveness(time.Second, 2*time.Second)
		for _, p := range []string{"P1", "P2", "P3"} {
			node.Register(p)
			if err := node.Upload(1, p, tensor.Vector{1, 2}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := node.Aggregate(1); err != nil {
			t.Fatal(err)
		}
		for _, up := range []struct {
			round int
			party string
		}{{2, "P1"}, {2, "P2"}, {3, "P1"}} {
			if err := node.Upload(up.round, up.party, tensor.Vector{3, 4}, 1); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
		for _, p := range []string{"P1", "P2"} {
			if _, err := node.Heartbeat(p); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(time.Second)
		if got := node.Tick(); !slices.Equal(got, []string{"P3"}) {
			t.Fatalf("setup evicted %v, want [P3]", got)
		}
		node.mu.Lock()
		j := node.journal
		node.mu.Unlock()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return node, clk
	}

	unchanged := func(*durableState) {}
	for i, tc := range []struct {
		name    string
		op      func(*AggregatorNode, *FakeClock) error
		wantErr error
		want    func(*durableState) // the state change op makes
	}{
		{"upload opening a round", func(n *AggregatorNode, _ *FakeClock) error {
			return n.Upload(4, "P1", tensor.Vector{5, 6}, 1)
		}, journal.ErrClosed, unchanged},
		{"upload into an open round", func(n *AggregatorNode, _ *FakeClock) error {
			return n.Upload(3, "P2", tensor.Vector{9, 9}, 1)
		}, journal.ErrClosed, unchanged},
		{"aggregate", func(n *AggregatorNode, _ *FakeClock) error {
			return n.Aggregate(2)
		}, journal.ErrClosed, unchanged},
		{"register", func(n *AggregatorNode, _ *FakeClock) error {
			n.Register("P4")
			return nil
		}, nil, func(s *durableState) { s.Parties = []string{"P1", "P2", "P4"} }},
		{"heartbeat from an evicted party", func(n *AggregatorNode, _ *FakeClock) error {
			if rejoined, err := n.Heartbeat("P3"); err != nil || !rejoined {
				return fmt.Errorf("rejoined = %v, err = %v", rejoined, err)
			}
			return nil
		}, nil, func(s *durableState) {
			s.Parties = []string{"P1", "P2", "P3"}
			s.Evicted = []string{}
		}},
		{"quorum", func(n *AggregatorNode, _ *FakeClock) error {
			n.SetQuorum(1)
			return nil
		}, nil, func(s *durableState) { s.Quorum = 1 }},
		{"retention", func(n *AggregatorNode, _ *FakeClock) error {
			n.SetRetention(1)
			return nil
		}, nil, func(s *durableState) { s.Retention = 1 }},
		{"reaper eviction", func(n *AggregatorNode, clk *FakeClock) error {
			clk.Advance(2 * time.Second)
			if got := n.Tick(); !slices.Equal(got, []string{"P1", "P2"}) {
				return fmt.Errorf("tick evicted %v, want [P1 P2]", got)
			}
			return nil
		}, nil, func(s *durableState) {
			s.Parties = []string{}
			s.Evicted = []string{"P1", "P2", "P3"}
		}},
		{"download of a fused round", func(n *AggregatorNode, _ *FakeClock) error {
			got, err := n.Download(1, "P1")
			if err == nil && !slices.Equal(got, tensor.Vector{1, 2}) {
				err = fmt.Errorf("downloaded %v, want [1 2]", got)
			}
			return err
		}, nil, unchanged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			node, clk := deadJournalNode(t, fmt.Sprintf("agg-wal-%d", i))
			want := durableStateOf(t, node)
			tc.want(&want)
			err := tc.op(node, clk)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if got := durableStateOf(t, node); !reflect.DeepEqual(got, want) {
				t.Fatalf("state after a dead-journal %s:\n got: %+v\nwant: %+v", tc.name, got, want)
			}
		})
	}
}

// TestRecoverRejectsRetiredFragmentRecords: a journal written before the
// fixed layouts fails recovery, naming the record type, rather than
// replaying to a node that is silently missing state. Types 2 and 3
// carried gob-encoded fragments, 4 dropped a round and 7 recorded a
// download: none has a replay path. The event types now carry the round-control layout, so the gob
// walEvent they once held is a decode error.
func TestRecoverRejectsRetiredFragmentRecords(t *testing.T) {
	ap := testAP(t)
	// What those records held: a gob struct with the fields the event
	// payload had, plus, for 2 and 3, the fragment.
	fragment := gobEncode(t, struct {
		Party  string
		Round  int
		Frag   []float64
		Weight float64
	}{"P1", 1, []float64{1, 2}, 1})
	event := gobEncode(t, struct {
		Party string
		Round int
		N     int
	}{"P1", 1, 2})
	for _, tc := range []struct {
		typ     uint8
		payload []byte
		want    string
	}{
		{2, fragment, "unknown record type 2"},
		{3, fragment, "unknown record type 3"},
		{4, event, "unknown record type 4"},
		{recRegister, event, "record type 1: "},
		{recQuorum, event, "record type 5: "},
		{recRetention, event, "record type 6: "},
		{7, event, "unknown record type 7"},
		{recEvict, event, "record type 10: "},
		{recRejoin, event, "record type 11: "},
		// The fragment records reject a gob body too; a fused round's is
		// validated though replay keeps it encoded.
		{recUpload, fragment, "record type 8: "},
		{recAggregate, fragment, "record type 9: "},
	} {
		dir := t.TempDir()
		j, _, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("agg-retired-%d", tc.typ)
		_, _, err = RecoverAggregatorNode(id, agg.IterativeAverage{}, provisionCVM(t, ap, id), dir, journal.Options{NoSync: true})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("recovery over a gob type-%d record: err = %v, want one containing %q", tc.typ, err, tc.want)
		}
	}
}
