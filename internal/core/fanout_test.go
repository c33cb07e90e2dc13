package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// newProvisionedNode builds one attested aggregator node the way
// Session.Setup does.
func newProvisionedNode(t *testing.T, proxy *attest.Proxy, vendor *sev.Vendor, id string) *AggregatorNode {
	t.Helper()
	node, err := NewAggregatorNode(id, agg.IterativeAverage{}, provisionCVM(t, proxy, vendor, id))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// serveNode exposes a node over an in-memory listener and returns a dialed
// client. The server is shut down on test cleanup.
func serveNode(t *testing.T, node *AggregatorNode) *AggregatorClient {
	t.Helper()
	srv := transport.NewServer()
	ServeAggregator(node, srv)
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return dialClient(t, ln, node.ID)
}

// stalledClient returns a client whose server accepts every aggregator
// method but never answers until the returned release channel closes —
// the "aggregator process wedged mid-round" fault. Cleanup closes release
// before the server so Server.Close (which waits for handlers) returns.
func stalledClient(t *testing.T, id string) (*AggregatorClient, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	srv := transport.NewServer()
	stall := func([]byte) ([]byte, error) {
		<-release
		return nil, errors.New("stalled aggregator released")
	}
	for _, m := range []string{MethodChallenge, MethodRegister, MethodUpload,
		MethodAggregate, MethodDownload} {
		srv.Handle(m, stall)
	}
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { close(release) }) // LIFO: runs before srv.Close
	return dialClient(t, ln, id), release
}

// deadClient returns a client whose connection is already severed — the
// "aggregator process killed" fault. Every call fails fast with the sticky
// connection error.
func deadClient(t *testing.T, id string) *AggregatorClient {
	t.Helper()
	srv := transport.NewServer()
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	c := dialClient(t, ln, id)
	srv.Close() // severs the accepted conn; the client fails on first use
	return c
}

func dialClient(t *testing.T, ln *transport.MemListener, id string) *AggregatorClient {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := &AggregatorClient{ID: id, C: transport.NewClient(conn)}
	t.Cleanup(func() { c.C.Close() })
	return c
}

// testFrags fabricates one distinct fragment per aggregator.
func testFrags(k int) []tensor.Vector {
	frags := make([]tensor.Vector, k)
	for j := range frags {
		frags[j] = tensor.Vector{float64(j + 1), float64(j+1) * 10}
	}
	return frags
}

// TestFleetDegradesWhenAggregatorStalls wedges 1 of K=3 aggregators
// mid-round: uploads and downloads to the healthy pair succeed, the
// stalled one times out per-call, and under Quorum=2 the party still
// completes the round — with the stalled aggregator's partition degraded
// to the party's own fragment — well inside the round deadline.
func TestFleetDegradesWhenAggregatorStalls(t *testing.T) {
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), OVMF)

	healthy := make([]*AggregatorNode, 2)
	clients := make([]*AggregatorClient, 3)
	for j := 0; j < 2; j++ {
		healthy[j] = newProvisionedNode(t, proxy, vendor, fmt.Sprintf("agg-%d", j+1))
		healthy[j].Register("P1")
		clients[j] = serveNode(t, healthy[j])
	}
	stalled, _ := stalledClient(t, "agg-3")
	clients[2] = stalled

	fleet := &Fleet{Clients: clients, Quorum: 2, Timeout: 150 * time.Millisecond}
	ctx := context.Background()
	frags := testFrags(3)
	start := time.Now()

	if err := fleet.UploadAll(ctx, 1, "P1", frags, 1); err != nil {
		t.Fatalf("upload under quorum: %v", err)
	}
	// Initiator-side fusion on the healthy pair (the wedged process never
	// gets there).
	for _, n := range healthy {
		if err := n.Aggregate(1); err != nil {
			t.Fatal(err)
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	merged, err := fleet.DownloadAll(dctx, 1, "P1", frags)
	if err != nil {
		t.Fatalf("download under quorum: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("degraded round took %v; a stalled aggregator must not hang the party", elapsed)
	}

	// Healthy partitions carry the fused (single-party: identical) values;
	// the stalled partition fell back to the party's own fragment.
	for j := 0; j < 2; j++ {
		for i := range merged[j] {
			if merged[j][i] != frags[j][i] {
				t.Fatalf("aggregator %d fragment mismatch: %v vs %v", j, merged[j], frags[j])
			}
		}
	}
	if merged[2][0] != frags[2][0] || merged[2][1] != frags[2][1] {
		t.Fatalf("stalled partition did not fall back: %v vs %v", merged[2], frags[2])
	}

	// The per-call deadline classified the stall as timeouts, visible in
	// the per-aggregator stats surface.
	st := fleet.Stats()["agg-3"]
	if st.Timeouts == 0 {
		t.Fatalf("expected timeouts against the stalled aggregator, got %+v", st)
	}
}

// TestFleetDegradesWhenAggregatorDies kills 1 of K=3 after the upload
// phase: the dead link fails fast (sticky connection error, no timeout
// wait), and the download degrades to the fallback fragment under quorum.
func TestFleetDegradesWhenAggregatorDies(t *testing.T) {
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), OVMF)

	nodes := make([]*AggregatorNode, 3)
	clients := make([]*AggregatorClient, 3)
	srvs := make([]*transport.Server, 3)
	for j := range nodes {
		nodes[j] = newProvisionedNode(t, proxy, vendor, fmt.Sprintf("agg-%d", j+1))
		nodes[j].Register("P1")
		srv := transport.NewServer()
		ServeAggregator(nodes[j], srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		srvs[j] = srv
		t.Cleanup(func() { srv.Close() })
		clients[j] = dialClient(t, ln, nodes[j].ID)
	}

	fleet := &Fleet{Clients: clients, Quorum: 2, Timeout: time.Second}
	ctx := context.Background()
	frags := testFrags(3)

	// Full-strength upload, then the crash.
	if err := fleet.UploadAll(ctx, 1, "P1", frags, 1); err != nil {
		t.Fatal(err)
	}
	srvs[2].Close()
	for j := 0; j < 2; j++ {
		if err := nodes[j].Aggregate(1); err != nil {
			t.Fatal(err)
		}
	}

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	start := time.Now()
	merged, err := fleet.DownloadAll(dctx, 1, "P1", frags)
	if err != nil {
		t.Fatalf("download with dead aggregator: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dead link took %v to fail; sticky errors should fail fast", elapsed)
	}
	if merged[2][0] != frags[2][0] {
		t.Fatalf("dead partition did not fall back: %v vs %v", merged[2], frags[2])
	}
}

// TestFleetQuorumUnmet: with Quorum=3 (all required), one dead aggregator
// must fail the fan-out with a quorum error rather than degrade.
func TestFleetQuorumUnmet(t *testing.T) {
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), OVMF)
	node := newProvisionedNode(t, proxy, vendor, "agg-1")
	node.Register("P1")

	clients := []*AggregatorClient{
		serveNode(t, node),
		deadClient(t, "agg-2"),
		deadClient(t, "agg-3"),
	}
	fleet := &Fleet{Clients: clients, Quorum: 3, Timeout: time.Second}
	err = fleet.UploadAll(context.Background(), 1, "P1", testFrags(3), 1)
	if err == nil {
		t.Fatal("upload succeeded with 2 of 3 aggregators dead and quorum 3")
	}
	if !strings.Contains(err.Error(), "quorum") {
		t.Fatalf("expected quorum error, got: %v", err)
	}
}

// TestVerifyAndRegisterFailsFast: Phase II against dead and stalled
// endpoints must return promptly under a context deadline, not hang the
// party's trust bootstrap.
func TestVerifyAndRegisterFailsFast(t *testing.T) {
	newNonce := attest.NewNonce
	verify := func(pub, nonce, sig []byte) error { return nil }

	t.Run("dead", func(t *testing.T) {
		c := deadClient(t, "agg-dead")
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		start := time.Now()
		if err := VerifyAndRegister(ctx, c, []byte("pub"), "P1", newNonce, verify); err == nil {
			t.Fatal("Phase II succeeded against a dead endpoint")
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("dead endpoint took %v to fail", elapsed)
		}
	})
	t.Run("stalled", func(t *testing.T) {
		c, _ := stalledClient(t, "agg-stalled")
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := VerifyAndRegister(ctx, c, []byte("pub"), "P1", newNonce, verify)
		if err == nil {
			t.Fatal("Phase II succeeded against a stalled endpoint")
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expected deadline error, got: %v", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("stalled endpoint took %v to fail", elapsed)
		}
	})
}

// TestVerifyAndRegisterAllRejectsUnverifiableAggregator: quorum tolerance
// covers availability, never cryptography — an aggregator that answers its
// challenge with an unverifiable token aborts the whole bootstrap even
// when the quorum would otherwise be met.
func TestVerifyAndRegisterAllRejectsUnverifiableAggregator(t *testing.T) {
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), OVMF)

	clients := make([]*AggregatorClient, 3)
	for j := 0; j < 3; j++ {
		clients[j] = serveNode(t, newProvisionedNode(t, proxy, vendor, fmt.Sprintf("agg-%d", j+1)))
	}
	fleet := &Fleet{Clients: clients, Quorum: 2, Timeout: time.Second}

	// agg-3's token key is swapped for garbage: its signature verifies
	// against nothing, as if the CVM were impersonated.
	tokenPubKey := func(id string) ([]byte, error) {
		if id == "agg-3" {
			return []byte("not-the-provisioned-key"), nil
		}
		return proxy.TokenPubKey(id)
	}
	err = fleet.VerifyAndRegisterAll(context.Background(), "P1", tokenPubKey,
		attest.NewNonce, attest.VerifyChallenge)
	if err == nil {
		t.Fatal("bootstrap accepted an unverifiable aggregator under quorum")
	}
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatalf("expected ErrVerificationFailed, got: %v", err)
	}

	// The same fleet with an honest key surface bootstraps fine.
	if err := fleet.VerifyAndRegisterAll(context.Background(), "P1",
		proxy.TokenPubKey, attest.NewNonce, attest.VerifyChallenge); err != nil {
		t.Fatalf("honest bootstrap failed: %v", err)
	}
}
