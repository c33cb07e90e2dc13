package core

// Churn chaos test: a party dies mid-round (after a partial upload), is
// evicted by the liveness tracker, the survivors fuse degraded rounds, an
// aggregator is killed and restarted with the eviction on its WAL, and the
// dead party rejoins and catches up — all parties end bit-identical.
//
// All lifecycle time is fake-clock-driven (the test advances every
// aggregator's clock explicitly); the orchestration is sequential, so
// there are no sleeps and no timing-dependent assertions.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"deta/internal/attest"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/sev"
	"deta/internal/tensor"
)

func TestChaosChurnEvictRejoinBitIdentical(t *testing.T) {
	const (
		churnParties = 3
		churnAggs    = 3
		churnRounds  = 4
	)
	vendor, err := sev.NewVendor()
	if err != nil {
		t.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), OVMF)

	// Every aggregator gets its own fake clock, surviving restarts: the
	// configure hook re-arms clock + lifecycle + liveness on recovery,
	// exactly like the daemon's boot flags would.
	clks := make([]*FakeClock, churnAggs)
	procs := make([]*chaosAgg, churnAggs)
	for j := range procs {
		clk := NewFakeClock(time.Unix(1_000_000, 0))
		clks[j] = clk
		procs[j] = &chaosAgg{
			id: fmt.Sprintf("agg-%d", j+1), dir: t.TempDir(),
			proxy: proxy, vendor: vendor,
			configure: func(n *AggregatorNode) {
				n.SetClock(clk)
				n.SetLifecycle(30*time.Second, time.Second)
				n.SetLiveness(3*time.Second, 8*time.Second)
			},
		}
		if err := procs[j].start(); err != nil {
			t.Fatal(err)
		}
		defer procs[j].stop()
	}
	advance := func(d time.Duration) {
		for _, clk := range clks {
			clk.Advance(d)
		}
	}

	broker, err := attest.NewKeyBroker(32)
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.Spec{Name: "churn", C: 1, H: 12, W: 12, Classes: 4}
	train, _ := dataset.TrainTest(spec, churnParties*16, 8, []byte("churn-data"))
	shards := dataset.SplitIID(train, churnParties, []byte("churn-split"))
	build := func() *nn.Network { return nn.ConvNet8(1, 12, 12, 4) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: churnRounds, LocalEpochs: 1, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("churn-cfg"),
	}
	mapper, err := NewMapper(build().NumParams(), EqualProportions(churnAggs), []byte("churn-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	type churnParty struct {
		id     string
		fl     *fl.Party
		step   *RoundStep
		global tensor.Vector
		own    []tensor.Vector // uploaded, not yet merged
		weight float64
	}
	ps := make([]*churnParty, churnParties)
	for i := range ps {
		id := fmt.Sprintf("P%d", i+1)
		broker.RegisterParty(id)
		clients := make([]*AggregatorClient, churnAggs)
		for j, c := range procs {
			clients[j] = c.client()
		}
		// No Deadline: one attempt per step, so the script fails where a
		// step does instead of re-driving through it.
		step := &RoundStep{Fleet: &Fleet{Clients: clients, Timeout: 5 * time.Second}, Mapper: mapper, Shuffle: true}
		if err := step.Join(ctx, id, proxy.TokenPubKey, attest.NewNonce, attest.VerifyChallenge); err != nil {
			t.Fatal(err)
		}
		permKey, err := broker.PermutationKey(id)
		if err != nil {
			t.Fatal(err)
		}
		if step.Shuffler, err = NewShuffler(permKey); err != nil {
			t.Fatal(err)
		}
		netw := build()
		netw.Init([]byte("churn-init"))
		ps[i] = &churnParty{
			id: id, fl: fl.NewParty(id, build, shards[i], cfg), step: step,
			global: netw.Params(), weight: float64(shards[i].Len()),
		}
	}

	local := func(p *churnParty, round int) (roundID []byte, update tensor.Vector) {
		roundID, err := broker.RoundID(round)
		if err != nil {
			t.Fatal(err)
		}
		update, _, err = p.fl.LocalUpdate(p.global, round)
		if err != nil {
			t.Fatal(err)
		}
		return roundID, update
	}
	upload := func(p *churnParty, round int) {
		roundID, update := local(p, round)
		var err error
		if p.own, err = p.step.Upload(ctx, round, p.id, roundID, update, p.weight); err != nil {
			t.Fatalf("%s upload round %d: %v", p.id, round, err)
		}
	}
	fuse := func(round int) {
		for _, c := range procs {
			node := c.getNode()
			done, abandoned := node.RoundStatus(round)
			if !done || abandoned {
				t.Fatalf("%s round %d: RoundStatus = (%v, %v), want complete", c.id, round, done, abandoned)
			}
			if err := node.Aggregate(round); err != nil {
				t.Fatalf("%s aggregate round %d: %v", c.id, round, err)
			}
		}
	}
	// download merges the round; a party that did not upload it (own nil)
	// only catches up on the model.
	download := func(p *churnParty, round int) {
		roundID, err := broker.RoundID(round)
		if err != nil {
			t.Fatal(err)
		}
		if p.global, err = p.step.Finish(ctx, round, p.id, roundID, p.own); err != nil {
			t.Fatalf("%s download round %d: %v", p.id, round, err)
		}
		p.own = nil
	}
	heartbeat := func(p *churnParty) []string {
		acked, rejoinedAt := p.step.Fleet.HeartbeatAll(ctx, p.id)
		if acked != churnAggs {
			t.Fatalf("%s heartbeat acked by %d/%d aggregators", p.id, acked, churnAggs)
		}
		return rejoinedAt
	}

	// Round 1: everyone participates.
	for _, p := range ps {
		upload(p, 1)
	}
	fuse(1)
	for _, p := range ps {
		download(p, 1)
	}

	// Round 2: P1 and P2 upload everywhere; P3 gets its fragment to agg-1
	// only, then dies mid-round.
	upload(ps[0], 2)
	upload(ps[1], 2)
	roundID, update := local(ps[2], 2)
	p3frags, err := Transform(mapper, ps[2].step.Shuffler, update, roundID, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps[2].step.Fleet.Clients[0].Upload(ctx, 2, ps[2].id, p3frags[0], 0, ps[2].weight); err != nil {
		t.Fatalf("P3 partial upload: %v", err)
	}
	// P3 is now silent. The survivors keep heartbeating while the clocks
	// cross the evict threshold; the per-node reaper evicts P3 everywhere.
	advance(5 * time.Second)
	heartbeat(ps[0])
	heartbeat(ps[1])
	advance(5 * time.Second) // P3 silent ≥ 8s on every node now
	heartbeat(ps[0])
	heartbeat(ps[1])
	for _, c := range procs {
		node := c.getNode()
		if got := node.EvictedParties(); len(got) != 1 || got[0] != "P3" {
			t.Fatalf("%s evicted = %v, want [P3]", c.id, got)
		}
		if node.NumParties() != churnParties-1 {
			t.Fatalf("%s has %d parties after evict", c.id, node.NumParties())
		}
	}
	// Membership shrank to {P1, P2}: round 2 seals — degraded on agg-2 and
	// agg-3 (two fragments), full on agg-1 (P3's fragment landed pre-death).
	fuse(2)
	download(ps[0], 2)
	download(ps[1], 2)

	// Kill and restart agg-2 between the evict and the rejoin: the
	// recovered node must replay recEvict to the same membership.
	if err := procs[1].restart(); err != nil {
		t.Fatal(err)
	}
	if node := procs[1].getNode(); node.NumParties() != churnParties-1 ||
		len(node.EvictedParties()) != 1 || node.EvictedParties()[0] != "P3" {
		t.Fatalf("restarted agg-2 lost the eviction: %d parties, evicted %v",
			node.NumParties(), node.EvictedParties())
	}

	// Round 3: survivors only.
	upload(ps[0], 3)
	upload(ps[1], 3)
	fuse(3)
	download(ps[0], 3)
	download(ps[1], 3)

	// P3 comes back: its heartbeat rejoins it at every aggregator
	// (including the restarted one), and it catches up by downloading the
	// latest fused round before training again.
	rejoinedAt := heartbeat(ps[2])
	if len(rejoinedAt) != churnAggs {
		t.Fatalf("P3 rejoined at %v, want all %d aggregators", rejoinedAt, churnAggs)
	}
	for _, c := range procs {
		if node := c.getNode(); node.NumParties() != churnParties {
			t.Fatalf("%s has %d parties after rejoin", c.id, node.NumParties())
		}
	}
	download(ps[2], 3) // catch-up: adopt the round-3 global the survivors hold

	// Round 4: full membership again.
	for _, p := range ps {
		upload(p, 4)
	}
	fuse(4)
	for _, p := range ps {
		download(p, 4)
	}

	// One more crash after the rejoin: the replayed node must remember P3
	// as a member in good standing.
	if err := procs[2].restart(); err != nil {
		t.Fatal(err)
	}
	if node := procs[2].getNode(); node.NumParties() != churnParties || len(node.EvictedParties()) != 0 {
		t.Fatalf("restarted agg-3 lost the rejoin: %d parties, evicted %v",
			node.NumParties(), node.EvictedParties())
	}

	// Survivors and the rejoined party converge to a bit-identical model.
	for _, p := range ps[1:] {
		if !fragEqual(p.global, ps[0].global) {
			t.Fatalf("P1 and %s diverge", p.id)
		}
	}
}
