package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
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
	proxy, vendor := testTrust(t)
	local := newProvisionedNode(t, proxy, vendor, "agg-1")
	waiting := newProvisionedNode(t, proxy, vendor, "agg-2")
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
	proxy, vendor := testTrust(t)
	local := newProvisionedNode(t, proxy, vendor, "agg-1")
	behind := newProvisionedNode(t, proxy, vendor, "agg-2")
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
	proxy, vendor := testTrust(t)
	nodes := []*AggregatorNode{
		newProvisionedNode(t, proxy, vendor, "agg-1"),
		newProvisionedNode(t, proxy, vendor, "agg-2"),
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
		if !n.Abandoned(1) {
			t.Fatalf("%s: round 1 not abandoned", n.ID)
		}
		if got, err := n.Download(2, "P1"); err != nil || got[0] != 3 {
			t.Fatalf("%s: round 2 = %v, %v; want [3]", n.ID, got, err)
		}
	}
}

// A local fuse that keeps failing is retried every poll but reported like a
// failing follower: the first failure of the streak and every 50th — not
// 50 lines a second for as long as the fault lasts.
func TestInitiatorLogsFailureStreaksSparsely(t *testing.T) {
	clk := newTickClock()
	proxy, vendor := testTrust(t)
	node := newProvisionedNode(t, proxy, vendor, "agg-1")
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
