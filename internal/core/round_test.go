package core

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/tensor"
)

// tickClock is a FakeClock that reports every waiter armed on it, so a test
// steps time exactly when a sync loop is waiting for it: no sleeps.
type tickClock struct {
	*FakeClock
	armed chan struct{}
}

func newTickClock() tickClock {
	return tickClock{NewFakeClock(lifecycleEpoch), make(chan struct{}, 1)}
}

func (c tickClock) After(d time.Duration) <-chan time.Time {
	ch := c.FakeClock.After(d)
	select {
	case c.armed <- struct{}{}:
	default: // a step is already owed; it fires this waiter too
	}
	return ch
}

// stepUntil advances one sync poll per armed waiter until cond holds.
func (c tickClock) stepUntil(t *testing.T, cond func() bool) {
	t.Helper()
	giveUp := time.After(10 * time.Second)
	for !cond() {
		select {
		case <-c.armed:
			c.Advance(syncPoll)
		case <-giveUp:
			t.Fatal("sync loops never reached the awaited state")
		}
	}
}

// logLines collects an Initiator's Logf output.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, format)
}

func (l *logLines) has(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Contains(strings.Join(l.lines, "\n"), sub)
}

// Every goroutine the initiator starts exits on ctx cancel, whatever it is
// doing: Run returns only after all of them have, so a Run that returns is
// the proof. Both kinds of follower goroutine are here — one polling a
// follower that still lacks its uploads, one backing off from a dead
// follower — beside the local loop idling on round 2.
func TestInitiatorStopsOnCancel(t *testing.T) {
	clk := newTickClock()
	ap := testAP(t)
	local := newProvisionedNode(t, ap, "agg-1")
	waiting := newProvisionedNode(t, ap, "agg-2")
	local.Register("P1")
	waiting.Register("P1")
	mustUpload(t, local, 1, "P1", 1)

	log := &logLines{}
	stop := startInitiator(&Initiator{
		Node:        local,
		Followers:   []*AggregatorClient{serveNode(t, waiting), deadClient(t, "agg-dead")},
		PeerTimeout: time.Minute, Clock: clk, Logf: log.logf,
	})
	clk.stepUntil(t, func() bool { return log.has("fused locally") && log.has("follower") })
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Initiator.Run did not return on context cancellation")
	}
	if waiting.LastAggregatedRound() != 0 {
		t.Fatal("follower fused a round it had no uploads for")
	}
}

// An initiator that crashed after fusing a round locally but before telling
// its followers leaves them one round behind; its successor resumes its own
// loop past that round and must still drive the followers through it.
// (Found by the chaos test once it ran the real sync: parties waited out
// their deadline on a follower nobody would ever tell to fuse.)
func TestInitiatorRedrivesRoundFusedBeforeCrash(t *testing.T) {
	clk := newTickClock()
	ap := testAP(t)
	local := newProvisionedNode(t, ap, "agg-1")
	behind := newProvisionedNode(t, ap, "agg-2")
	for _, n := range []*AggregatorNode{local, behind} {
		n.Register("P1")
		mustUpload(t, n, 1, "P1", 1)
	}
	if err := local.Aggregate(1); err != nil { // the predecessor's last act
		t.Fatal(err)
	}
	defer startInitiator(&Initiator{
		Node: local, Followers: []*AggregatorClient{serveNode(t, behind)},
		PeerTimeout: time.Minute, Clock: clk,
	})()
	clk.stepUntil(t, func() bool { return behind.LastAggregatedRound() == 1 })
}

// With a lifecycle armed, a round that dies below quorum is skipped on the
// initiator and on the follower, and the next round fuses on both — all on
// fake time.
func TestInitiatorSkipsAbandonedRound(t *testing.T) {
	clk := newTickClock()
	ap := testAP(t)
	nodes := []*AggregatorNode{
		newProvisionedNode(t, ap, "agg-1"),
		newProvisionedNode(t, ap, "agg-2"),
	}
	for _, n := range nodes {
		n.SetClock(clk)
		n.SetLifecycle(30*time.Second, time.Second)
		n.Register("P1")
		n.Register("P2")
		mustUpload(t, n, 1, "P1", 1) // P2 never shows up for round 1
	}
	defer startInitiator(&Initiator{
		Node: nodes[0], Followers: []*AggregatorClient{serveNode(t, nodes[1])},
		PeerTimeout: time.Minute, Clock: clk,
	})()

	clk.Advance(30 * time.Second)
	for _, n := range nodes {
		mustUpload(t, n, 2, "P1", 2)
		mustUpload(t, n, 2, "P2", 4)
	}
	clk.stepUntil(t, func() bool {
		return nodes[0].LastAggregatedRound() == 2 && nodes[1].LastAggregatedRound() == 2
	})
	for _, n := range nodes {
		if n.Phase(1) != PhaseAbandoned {
			t.Fatalf("%s: round 1 not abandoned", n.ID)
		}
		if got, err := n.Download(2, "P1"); err != nil || got[0] != 3 {
			t.Fatalf("%s: round 2 = %v, %v; want [3]", n.ID, got, err)
		}
	}
}

// PeerTimeout 0 leaves a follower's exchange bounded by Run's ctx alone, as
// Fleet.Timeout 0 does a party's calls. An already-expired exchange would
// fail every attempt (bar the rare one whose response beats the expired
// ctx), so the healthy follower must fuse without a single failure.
func TestInitiatorZeroPeerTimeoutFusesFollower(t *testing.T) {
	clk := newTickClock()
	ap := testAP(t)
	local := newProvisionedNode(t, ap, "agg-1")
	follower := newProvisionedNode(t, ap, "agg-2")
	for _, n := range []*AggregatorNode{local, follower} {
		n.Register("P1")
		mustUpload(t, n, 1, "P1", 1)
	}
	log := &logLines{}
	defer startInitiator(&Initiator{
		Node: local, Followers: []*AggregatorClient{serveNode(t, follower)}, Clock: clk, Logf: log.logf,
	})()
	failed := func() bool { return log.has("follower %s") }
	clk.stepUntil(t, func() bool { return follower.LastAggregatedRound() == 1 || failed() })
	if failed() {
		t.Fatal("an exchange with the healthy follower failed")
	}
}

// A local fuse that keeps failing is retried every poll but reported like a
// failing follower: the first failure of the streak and every 50th — not
// 50 lines a second for as long as the fault lasts.
func TestInitiatorLogsFailureStreaksSparsely(t *testing.T) {
	clk := newTickClock()
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-1")
	node.Algorithm = agg.Krum{F: 1} // cannot fuse a single update: every attempt fails
	node.Register("P1")
	mustUpload(t, node, 1, "P1", 1)

	log := &logLines{}
	stop := startInitiator(&Initiator{Node: node, Clock: clk, Logf: log.logf})
	polls := 0
	clk.stepUntil(t, func() bool { polls++; return polls > 120 })
	stop()
	if node.LastAggregatedRound() != 0 {
		t.Fatal("round fused; the test needs a failing fuse")
	}
	// 120 or 121 attempts were made: failures 1, 50 and 100 are reported.
	if len(log.lines) != 3 {
		t.Fatalf("%d log lines for ~120 failed attempts, want 3: %q", len(log.lines), log.lines)
	}
}

// A party whose upload arrives after the round sealed is cut; Round still
// hands it the fused model instead of re-driving the upload until its
// step deadline.
func TestRoundStragglerDownloadsFusedModel(t *testing.T) {
	node, _ := lifecycleNode(t, "agg-cut")
	node.Register("P1")
	node.Register("P2")
	node.SetQuorum(1)
	node.SetLifecycle(time.Minute, 0) // seals the instant P2 uploads
	mapper, err := NewMapper(2, EqualProportions(1), []byte("cut-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	step := &RoundStep{Fleet: &Fleet{Clients: []*AggregatorClient{serveNode(t, node)}}, Mapper: mapper, Deadline: 5 * time.Second}
	ctx := context.Background()
	own, err := step.Upload(ctx, 1, "P2", nil, tensor.Vector{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	putFragments(own)
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := step.Round(ctx, 1, "P1", nil, tensor.Vector{6, 8}, 1)
	if err != nil {
		t.Fatalf("straggler round: %v", err)
	}
	if !slices.Equal(got, tensor.Vector{2, 4}) {
		t.Fatalf("straggler got %v, want the model fused without it, [2 4]", got)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("straggler took %v: the cut upload was re-driven", waited)
	}
}
