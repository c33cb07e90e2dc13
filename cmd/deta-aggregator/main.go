// Command deta-aggregator runs one DeTA aggregator: it launches a
// simulated SEV CVM on its host platform, attests it against the remote
// attestation proxy (Phase I, receiving its authentication token into
// encrypted memory), and then serves the aggregation protocol to parties
// over TLS. One aggregator is designated the initiator; it synchronizes
// fusion across its follower peers once all parties have uploaded
// (paper §4.1, "Inter-Aggregator Training Synchronization").
//
//	deta-aggregator -id agg-1 -listen 127.0.0.1:7101 -ap 127.0.0.1:7000 \
//	    -initiator -peers agg-2=127.0.0.1:7102,agg-3=127.0.0.1:7103
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/journal"
	"deta/internal/transport"
)

// clk is the process clock. The liveness ticker and the initiator sync
// wait through this seam (core.SystemClock in production) so tests can
// substitute core.FakeClock and step them deterministically.
var clk core.Clock = core.SystemClock

func main() {
	id := flag.String("id", "agg-1", "aggregator identifier")
	listen := flag.String("listen", "127.0.0.1:7101", "address to serve parties on")
	apAddr := flag.String("ap", "127.0.0.1:7000", "attestation proxy address")
	tlsDir := flag.String("tls-dir", "./deta-tls", "TLS materials directory (shared with the AP)")
	tlsName := flag.String("tls-name", "127.0.0.1", "server name expected in the AP/peer certificates")
	algorithm := flag.String("algorithm", "avg", "aggregation algorithm: avg | median | trimmed:<k>")
	initiator := flag.Bool("initiator", false, "act as the round-sync initiator")
	peers := flag.String("peers", "", "comma-separated follower list id=addr (initiator only)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "total budget for dialing the AP and each follower (with backoff)")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Minute, "deadline for synchronizing one follower's round fusion (0 = none)")
	stateDir := flag.String("state-dir", "", "directory for the durable round journal; a restarted aggregator recovers its rounds from it (empty = in-memory only)")
	retain := flag.Int("retain", 0, "evict aggregated rounds older than N from memory (0 = keep all; the journal stays the durable copy)")
	noFsync := flag.Bool("journal-no-fsync", false, "skip the per-record journal fsync (survives process crashes only; benchmarking)")
	roundDeadline := flag.Duration("round-deadline", 0, "abandon a round still below quorum after this long, and cut stragglers at it (0 = wait forever, the legacy behavior)")
	grace := flag.Duration("grace", 2*time.Second, "post-quorum straggler window: a round with quorum seals after min(-grace, remaining -round-deadline); needs -round-deadline")
	heartbeat := flag.Duration("heartbeat", 0, "expected party heartbeat interval; parties silent for 3x are suspect, for 8x are evicted from membership (journaled; they rejoin on their next signal). 0 = liveness off")
	flag.Parse()

	log.SetPrefix(fmt.Sprintf("deta-aggregator[%s]: ", *id))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}
	mat, err := transport.LoadTLSMaterials(*tlsDir)
	if err != nil {
		log.Fatalf("loading TLS materials: %v", err)
	}
	dialCtx, cancelDial := context.WithTimeout(context.Background(), *dialTimeout)
	apConn, err := mat.DialTLSBackoff(dialCtx, *apAddr, *tlsName)
	if err != nil {
		cancelDial()
		log.Fatalf("dialing AP: %v", err)
	}

	// Phase I: have the AP endorse this host's platform, launch the CVM
	// paused, attest it, receive the token into encrypted memory, resume.
	cvm, err := core.BootAggregatorCVM(dialCtx, &core.APClient{C: apConn}, *id)
	if err != nil {
		log.Fatalf("phase I failed (refusing to serve): %v", err)
	}
	log.Printf("CVM attested and provisioned; state=%s", cvm.State())

	var node *core.AggregatorNode
	if *stateDir != "" {
		var info *core.RecoveryInfo
		node, info, err = core.RecoverAggregatorNode(*id, alg, cvm,
			core.StateDirFor(*stateDir, *id), journal.Options{NoSync: *noFsync})
		if err != nil {
			log.Fatalf("starting aggregation service: %v", err)
		}
		log.Printf("journal recovered: %d parties, %d rounds in memory (%d aggregated, last %d), torn tail=%v",
			info.Parties, info.Rounds, info.Aggregated, info.LastAggregated, info.TornTail)
	} else {
		node, err = core.NewAggregatorNode(*id, alg, cvm)
		if err != nil {
			log.Fatalf("starting aggregation service: %v", err)
		}
	}
	if *retain > 0 {
		node.SetRetention(*retain)
	}
	if *roundDeadline > 0 {
		node.SetLifecycle(*roundDeadline, *grace)
		log.Printf("round lifecycle armed: deadline %v, grace %v", *roundDeadline, *grace)
	}
	if *heartbeat > 0 {
		// Recovered rounds and parties get a fresh liveness epoch here
		// (the WAL carries no timestamps), so a restarted aggregator gives
		// everyone a full window before suspecting anyone.
		node.SetLiveness(3**heartbeat, 8**heartbeat)
		// The process context gives the ticker an escape edge (goleak):
		// main never cancels it today, but the goroutine must not be
		// structurally unstoppable.
		go livenessTicker(context.Background(), node, *heartbeat)
		log.Printf("liveness armed: suspect after %v, evict after %v", 3**heartbeat, 8**heartbeat)
	}
	srv := transport.NewServer()
	core.ServeAggregator(node, srv)

	if *initiator {
		followers, err := core.DialAggregators(dialCtx, mat, *peers, *tlsName)
		if err != nil {
			log.Fatalf("dialing followers: %v", err)
		}
		// As with the liveness ticker, the process context exists to give
		// the sync goroutines an escape edge (goleak), not because main
		// cancels them today.
		sync := &core.Initiator{Node: node, Followers: followers, PeerTimeout: *peerTimeout, Clock: clk, Logf: log.Printf}
		go sync.Run(context.Background())
		log.Printf("acting as initiator with %d followers", len(followers))
	}
	cancelDial()

	ln, err := mat.ListenTLS(*listen)
	if err != nil {
		log.Fatalf("listening on %s: %v", *listen, err)
	}
	log.Printf("serving %s aggregation on %s", alg.Name(), ln.Addr())
	if err := srv.Serve(ln); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

func parseAlgorithm(name string) (agg.Algorithm, error) {
	switch {
	case name == "avg":
		return agg.IterativeAverage{}, nil
	case name == "median":
		return agg.CoordinateMedian{}, nil
	case strings.HasPrefix(name, "trimmed:"):
		var k int
		if _, err := fmt.Sscanf(name, "trimmed:%d", &k); err != nil {
			return nil, fmt.Errorf("bad trimmed spec %q", name)
		}
		return agg.TrimmedMean{Trim: k}, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (want avg | median | trimmed:<k>)", name)
}

// livenessTicker drives the liveness reaper: uploads and heartbeats push
// lastSeen forward, and this timer notices the parties that stopped
// pushing. Evictions are journaled by the node before taking effect, so a
// crash right after one replays to the same membership.
func livenessTicker(ctx context.Context, node *core.AggregatorNode, interval time.Duration) {
	// Evictions can also be performed by the reap that runs on every
	// heartbeat receipt, between ticks; diff the evicted set rather than
	// relying on Tick's own return so every eviction gets a log line.
	// Re-armed clk.After instead of a ticker: liveness needs no catch-up
	// semantics, and the clock seam keeps the loop FakeClock-drivable.
	known := map[string]bool{}
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(interval):
		}
		node.Tick()
		cur := map[string]bool{}
		var fresh []string
		for _, p := range node.EvictedParties() {
			cur[p] = true
			if !known[p] {
				fresh = append(fresh, p)
			}
		}
		known = cur
		if len(fresh) > 0 {
			log.Printf("liveness: evicted silent parties %v (rejoin on next signal)", fresh)
		}
		if suspects := node.Suspects(); len(suspects) > 0 {
			log.Printf("liveness: suspect parties %v", suspects)
		}
	}
}
