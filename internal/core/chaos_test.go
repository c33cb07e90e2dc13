package core

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/journal"
	"deta/internal/nn"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Chaos harness parameters. The seed keys every fault plan, so a failing
// run replays the same fault schedule.
const (
	chaosParties       = 2
	chaosAggs          = 3
	chaosRounds        = 3
	chaosSeed    int64 = 0xDE7A
)

// chaosAgg is one journaled aggregator "process" that can be killed and
// restarted mid-test: restart drops the in-memory node, closes its server,
// and recovers a fresh node (fresh CVM, re-attested under the same ID)
// from the same journal directory — exactly what a crashed deployment does.
type chaosAgg struct {
	id  string
	dir string
	ap  *APClient

	// configure, when non-nil, is re-applied to every recovered node —
	// lifecycle/liveness settings and clocks are boot flags, not journal
	// state, so a restarted process must re-arm them.
	configure func(*AggregatorNode)

	// followers, when non-nil, makes this process the initiator: like
	// deta-aggregator -initiator, every boot runs an Initiator over the
	// recovered node, and the sync dies with the process.
	followers []*chaosAgg

	mu            sync.Mutex
	node          *AggregatorNode
	srv           *transport.Server
	ln            *transport.MemListener
	stopInitiator func()
}

// startInitiator runs in on its own goroutine; the returned stop cancels it
// and waits until every goroutine it started has exited.
func startInitiator(in *Initiator) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// runParties runs n party processes concurrently and returns the global
// model they must all have reached, bit for bit.
func runParties(t *testing.T, n int, runParty func(idx int) (tensor.Vector, error)) tensor.Vector {
	t.Helper()
	var wg sync.WaitGroup
	finals := make([]tensor.Vector, n)
	errs := make([]error, n)
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			finals[p], errs[p] = runParty(p)
		}()
	}
	wg.Wait()
	for p := range finals {
		if errs[p] != nil {
			t.Fatalf("party %d: %v", p+1, errs[p])
		}
		if !slices.Equal(finals[p], finals[0]) {
			t.Fatalf("parties 1 and %d disagree on the global model", p+1)
		}
	}
	return finals[0]
}

// trainParty is deta-party's round loop: local update, upload half, finish
// half, every round. between runs after a round's uploads and after after
// its merge — the chaos script's kill points; either may be nil.
func trainParty(ctx context.Context, step *RoundStep, party *fl.Party, global tensor.Vector, rounds int,
	roundID func(round int) ([]byte, error), between, after func(round int) error) (tensor.Vector, error) {
	for round := 1; round <= rounds; round++ {
		id, err := roundID(round)
		if err != nil {
			return nil, err
		}
		update, _, err := party.LocalUpdate(global, round)
		if err != nil {
			return nil, err
		}
		own, err := step.Upload(ctx, round, party.ID, id, update, float64(party.NumExamples()))
		if err == nil && between != nil {
			err = between(round)
		}
		if err != nil {
			return nil, err
		}
		if global, err = step.Finish(ctx, round, party.ID, id, own); err == nil && after != nil {
			err = after(round)
		}
		if err != nil {
			return nil, err
		}
	}
	return global, nil
}

func (c *chaosAgg) start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cvm, err := BootAggregatorCVM(context.Background(), c.ap, c.id)
	if err != nil {
		return err
	}
	node, _, err := RecoverAggregatorNode(c.id, agg.IterativeAverage{}, cvm, c.dir, journal.Options{})
	if err != nil {
		return err
	}
	if c.configure != nil {
		c.configure(node)
	}
	srv := transport.NewServer()
	ServeAggregator(node, srv)
	ln := transport.NewMemListener()
	go srv.Serve(ln)
	c.node, c.srv, c.ln, c.stopInitiator = node, srv, ln, func() {}
	if c.followers != nil {
		in := &Initiator{Node: node, PeerTimeout: 30 * time.Second}
		for _, f := range c.followers {
			in.Followers = append(in.Followers, f.client())
		}
		c.stopInitiator = startInitiator(in)
	}
	return nil
}

// restart kills the running aggregator (sync stopped, server and journal
// handle closed, node discarded) and boots a replacement from the journal.
func (c *chaosAgg) restart() error {
	c.stop()
	return c.start()
}

// client is a handle that follows the process across restarts: every
// (re)dial reaches whichever server is current.
func (c *chaosAgg) client() *AggregatorClient {
	return &AggregatorClient{ID: c.id, Redial: func(context.Context) (net.Conn, error) { return c.dialCurrent() }}
}

func (c *chaosAgg) getNode() *AggregatorNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.node
}

func (c *chaosAgg) dialCurrent() (net.Conn, error) {
	c.mu.Lock()
	ln := c.ln
	c.mu.Unlock()
	return ln.Dial()
}

func (c *chaosAgg) stop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stopInitiator()
	c.srv.Close()
	c.node.CloseJournal()
}

// runChaosFederation runs a full 2-party/3-aggregator/3-round federation
// over in-memory transports and returns the final global model. With
// faulty=true, every party↔aggregator connection injects drops, delays,
// and severs from a deterministic seed, and two aggregators are killed and
// restarted mid-round; the journal plus idempotent retries must make the
// result indistinguishable from the clean run.
func runChaosFederation(t *testing.T, faulty bool) tensor.Vector {
	t.Helper()

	ap := testAP(t)

	// agg-1 is the initiator, so it boots last: its followers exist by then
	// (the daemon's -peers dial backs off until they do).
	procs := make([]*chaosAgg, chaosAggs)
	for j := chaosAggs - 1; j >= 0; j-- {
		procs[j] = &chaosAgg{
			id: fmt.Sprintf("agg-%d", j+1), dir: t.TempDir(), ap: ap,
		}
		if j == 0 {
			procs[0].followers = procs[1:]
		}
		if err := procs[j].start(); err != nil {
			t.Fatal(err)
		}
		defer procs[j].stop()
	}

	// Pre-register every party on every node so the first round's quorum
	// is all parties regardless of upload interleaving (mirrors the e2e
	// test's guard).
	for _, c := range procs {
		for p := 0; p < chaosParties; p++ {
			c.getNode().Register(fmt.Sprintf("P%d", p+1))
		}
	}

	spec := dataset.Spec{Name: "chaos", C: 1, H: 12, W: 12, Classes: 4}
	train, _ := dataset.TrainTest(spec, chaosParties*16, 8, []byte("chaos-data"))
	shards := dataset.SplitIID(train, chaosParties, []byte("chaos-split"))
	build := func() *nn.Network { return nn.ConvNet8(1, 12, 12, 4) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: chaosRounds, LocalEpochs: 1, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("chaos-cfg"),
	}

	runParty := func(idx int) (tensor.Vector, error) {
		id := fmt.Sprintf("P%d", idx+1)
		clients := make([]*AggregatorClient, chaosAggs)
		for j, c := range procs {
			clients[j] = c.client()
			if faulty {
				// Deterministic per-(party, aggregator) fault plan; each
				// redial draws the next per-connection schedule from it.
				dial := transport.FaultDialer(c.dialCurrent, transport.Faults{
					Seed:      chaosSeed + int64(idx*16+j),
					DelayProb: 0.2, Delay: time.Millisecond,
					DropProb: 0.02, SeverProb: 0.02,
				})
				clients[j].Redial = func(context.Context) (net.Conn, error) { return dial() }
			}
		}
		// A short per-call timeout classifies dropped writes (request sent,
		// connection silently dead) as failures quickly so the step's
		// re-drive — every step, Phase II included — retries them.
		step := &RoundStep{Fleet: &Fleet{Clients: clients, Timeout: 2 * time.Second}, Shuffle: true, Deadline: time.Minute}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()

		if err := step.Join(ctx, ap, id); err != nil {
			return nil, err
		}
		var err error
		if step.Mapper, err = NewMapper(build().NumParams(), EqualProportions(chaosAggs), []byte("chaos-mapper")); err != nil {
			return nil, err
		}
		net := build()
		net.Init([]byte("chaos-init"))

		// P1 kills and restarts two aggregators around its round-2 download.
		// agg-1 — the initiator — goes mid-round: P1's round-2 fragments are
		// journaled but not yet fused (P2 may still be uploading), so the
		// recovered node must resume the round from its WAL and its new
		// Initiator the sync at the first round not yet fused. agg-2 — a
		// follower — goes after fusion: P2 has yet to download round 2 from
		// it, so the recovered node must serve the journaled aggregate
		// bit-identically, and the initiator must re-dial it for round 3.
		var between, after func(round int) error
		if faulty && idx == 0 {
			inRound2 := func(c *chaosAgg) func(int) error {
				return func(round int) error {
					if round != 2 {
						return nil
					}
					return c.restart()
				}
			}
			between, after = inRound2(procs[0]), inRound2(procs[1])
		}
		return trainParty(ctx, step, fl.NewParty(id, build, shards[idx], cfg), net.Params(), chaosRounds,
			func(round int) ([]byte, error) { return ap.RoundID(ctx, round) }, between, after)
	}

	return runParties(t, chaosParties, runParty)
}

// TestChaosRestartBitIdenticalModel is the acceptance test for the crash-
// recovery work: a federation suffering injected connection drops, delays,
// and severs plus two aggregator kill+restarts mid-round must complete all
// rounds and produce a global model bit-identical to a fault-free run.
func TestChaosRestartBitIdenticalModel(t *testing.T) {
	if !slices.Equal(runChaosFederation(t, false), runChaosFederation(t, true)) {
		t.Fatal("chaos run diverged from the fault-free run")
	}
}
