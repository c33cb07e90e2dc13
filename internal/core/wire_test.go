package core

import (
	"bytes"
	"context"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// fragBits maps each party's fragment to its float bits, so equality is
// bit equality.
func fragBits(m map[string]tensor.Vector) map[string][]uint64 {
	out := make(map[string][]uint64, len(m))
	for p, v := range m {
		out[p] = vectorBits(v)
	}
	return out
}

// TestUploadBodyIsWALRecord drives a journalled node over a MemListener
// with bulk-sized fragments: each upload's request body must land in
// wal.log byte for byte, the download body must be the journaled
// recAggregate payload, and a node recovered from that log must leak and
// serve exactly what the crashed one did.
func TestUploadBodyIsWALRecord(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-wire")
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-wire", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	client := serveNode(t, node)
	ctx := context.Background()

	const round, values = 3, 175 << 10 / 8 // a 175 KB fragment
	rnd := rand.New(rand.NewPCG(7, 7))
	var bodies [][]byte
	for i, p := range []string{"P0", "P1"} {
		if err := client.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
		frag := make(tensor.Vector, values)
		for k := range frag {
			frag[k] = rnd.NormFloat64()
		}
		frag[0], frag[1] = math.NaN(), math.Copysign(0, -1)
		// A non-zero partition index: the body is journaled with it.
		body, err := transport.Encode(UploadReq{Round: round, PartyID: p, Frag: 2, Fragment: frag, Weight: float64(10 + i)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.C.CallContext(ctx, MethodUpload, body); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if err := client.Aggregate(ctx, round); err != nil {
		t.Fatal(err)
	}
	download := func(c *AggregatorClient) []byte {
		t.Helper()
		req, err := transport.Encode(DownloadReq{Round: round, PartyID: "P0"})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.C.CallContext(ctx, MethodDownload, req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	respBody := download(client)
	viaClient, err := client.Download(ctx, round, "P0")
	if err != nil {
		t.Fatal(err)
	}
	inProcess, err := node.Download(round, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vectorBits(viaClient), vectorBits(inProcess)) {
		t.Fatal("RPC and in-process downloads differ")
	}
	leaked := fragBits(node.LeakRoundFragments(round))
	if err := node.CloseJournal(); err != nil {
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range bodies {
		if !bytes.Contains(wal, body) {
			t.Errorf("wal.log lacks upload %d's request body", i)
		}
	}
	j, rec, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var fusedRecords [][]byte
	for _, r := range rec.Records {
		if r.Type == recAggregate {
			fusedRecords = append(fusedRecords, bytes.Clone(r.Data))
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(fusedRecords) != 1 || !bytes.Equal(fusedRecords[0], respBody) {
		t.Fatalf("download body is not the one journaled recAggregate payload (%d fused records)", len(fusedRecords))
	}

	// Crash and recover: the restarted node holds and serves the same bits.
	node2, _, err := RecoverAggregatorNode("agg-wire", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node2.CloseJournal()
	if got := fragBits(node2.LeakRoundFragments(round)); !reflect.DeepEqual(got, leaked) {
		t.Fatal("recovered node leaks different fragments than the crashed one held")
	}
	recovered, err := node2.Download(round, "P0")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vectorBits(recovered), vectorBits(inProcess)) {
		t.Fatal("recovered download differs from the pre-crash one")
	}
	if got := download(serveNode(t, node2)); !bytes.Equal(got, respBody) {
		t.Fatal("recovered node's download body differs from the pre-crash one")
	}
}

// TestDownloadRejectsOtherRound: a download response names the round it
// was fused for, and a response for any other round is an error rather
// than a fragment of the wrong model.
func TestDownloadRejectsOtherRound(t *testing.T) {
	const round = 5
	var answer atomic.Int64
	answer.Store(round)
	srv := transport.NewServer()
	srv.Handle(MethodDownload, func([]byte) ([]byte, error) {
		return transport.AppendFragment(nil, &transport.Fragment{Round: int(answer.Load()), Values: tensor.Vector{1, 2}})
	})
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	client := dialClient(t, ln, "agg-stale")

	got, err := client.Download(context.Background(), round, "P0")
	if err != nil || !reflect.DeepEqual(got, tensor.Vector{1, 2}) {
		t.Fatalf("download of the requested round = %v, %v", got, err)
	}
	answer.Store(round - 1)
	if got, err := client.Download(context.Background(), round, "P0"); err == nil || !strings.Contains(err.Error(), "round 4, not 5") {
		t.Fatalf("download answered for round 4 = %v, %v; want an error naming both rounds", got, err)
	}
}

// TestRoundJournalsOneRecordPerUploadPlusFusion: with N parties, a round
// of N uploads and its fusion appends exactly N + 1 records, and
// downloads, in process and over deta.Download, write nothing to the
// journal.
func TestRoundJournalsOneRecordPerUploadPlusFusion(t *testing.T) {
	ap := testAP(t)
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-records", agg.IterativeAverage{}, provisionCVM(t, ap, "agg-records"), dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.CloseJournal()
	client, ctx := serveNode(t, node), context.Background()
	// journaled returns the records past the last compaction and wal.log's size.
	journaled := func() (int, int64) {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return node.journal.TailLen(), fi.Size()
	}
	parties := []string{"P0", "P1", "P2", "P3", "P4", "P5"}
	n := len(parties)
	for _, p := range parties {
		node.Register(p)
	}
	before, _ := journaled()
	for i, p := range parties {
		if err := client.Upload(ctx, 1, p, tensor.Vector{float64(i), 1}, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.Aggregate(ctx, 1); err != nil {
		t.Fatal(err)
	}
	tail, size := journaled()
	if tail-before != n+1 {
		t.Fatalf("a round of %d uploads and its fusion appended %d records, want %d", n, tail-before, n+1)
	}
	for _, p := range parties {
		if _, err := node.Download(1, p); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Download(ctx, 1, p); err != nil {
			t.Fatal(err)
		}
	}
	if gotTail, gotSize := journaled(); gotTail != tail || gotSize != size {
		t.Fatalf("%d downloads moved the journal: %d -> %d records, %d -> %d bytes", 2*n, tail, gotTail, size, gotSize)
	}
}

// TestFailedCompactionWaitsForThreshold: a compaction that fails — here,
// because a non-empty directory sits where wal.tmp goes — is retried at
// the first fused round after another compactEvery records have
// accumulated, not at every fused round.
func TestFailedCompactionWaitsForThreshold(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-compact")
	dir := t.TempDir()
	node, _, err := RecoverAggregatorNode("agg-compact", agg.IterativeAverage{}, cvm, dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.CloseJournal()
	node.SetCompactEvery(8)
	node.Register("P0")
	blocker := filepath.Join(dir, "wal.tmp")
	if err := os.MkdirAll(filepath.Join(blocker, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Each failed attempt moves the retry mark, so its changes count the
	// attempts.
	retryAt := func() int {
		node.mu.Lock()
		defer node.mu.Unlock()
		return node.compactRetryAt
	}
	// A round is two records, an upload and its fusion. The blocker goes
	// after round 40, and the next attempt, due four rounds later, succeeds.
	const rounds = 40
	attempts, mark := 0, retryAt()
	for r := 1; r <= rounds+4; r++ {
		if err := node.Upload(r, "P0", tensor.Vector{float64(r)}, 1); err != nil {
			t.Fatal(err)
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
		if m := retryAt(); m != mark {
			attempts, mark = attempts+1, m
		}
		if r != rounds {
			continue
		}
		if attempts == 0 || attempts > rounds/4 {
			t.Fatalf("%d fused rounds made %d failed compaction attempts, want 1..%d", rounds, attempts, rounds/4)
		}
		if err := os.RemoveAll(blocker); err != nil {
			t.Fatal(err)
		}
	}
	if got := retryAt(); got != 0 {
		t.Fatalf("retry mark after the blocker went = %d, want 0 (compacted)", got)
	}
}
