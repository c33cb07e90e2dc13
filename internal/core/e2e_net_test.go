package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// TestNetworkedTrainingEndToEnd replicates the full cmd/ deployment inside
// one test over in-memory transports: an AP control plane, three
// aggregator servers on remotely endorsed platforms (the initiator driving
// follower sync), and two party loops performing Phase II, transformed
// uploads, and merges — then checks the resulting model matches an
// in-process FFL baseline bit for bit.
func TestNetworkedTrainingEndToEnd(t *testing.T) {
	const (
		parties = 2
		aggs    = 3
		rounds  = 2
	)

	// --- Control plane --------------------------------------------------
	apSvc, err := NewAPService(OVMF, 32)
	if err != nil {
		t.Fatal(err)
	}
	apSrv := transport.NewServer()
	apSvc.Serve(apSrv)
	apLn := transport.NewMemListener()
	go apSrv.Serve(apLn)
	defer apSrv.Close()

	dialAP := func() *APClient {
		conn, err := apLn.Dial()
		if err != nil {
			t.Fatal(err)
		}
		return &APClient{C: transport.NewClient(conn)}
	}

	// --- Aggregator processes -------------------------------------------
	aggLns := make([]*transport.MemListener, aggs)
	nodes := make([]*AggregatorNode, aggs)
	for j := 0; j < aggs; j++ {
		ap := dialAP()
		platform := remotePlatform(t, ap, fmt.Sprintf("host-%d", j))
		cvm, err := platform.LaunchCVM(OVMF)
		if err != nil {
			t.Fatal(err)
		}
		id := fmt.Sprintf("agg-%d", j+1)
		if err := ap.AttestCVM(context.Background(), id, platform, cvm); err != nil {
			t.Fatal(err)
		}
		node, err := NewAggregatorNode(id, agg.IterativeAverage{}, cvm)
		if err != nil {
			t.Fatal(err)
		}
		nodes[j] = node
		srv := transport.NewServer()
		ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		defer srv.Close()
		aggLns[j] = ln
	}

	// Initiator sync, as deta-aggregator -initiator runs it: agg-1 fuses
	// itself and drives the other two over RPC.
	var followers []*AggregatorClient
	for j := 1; j < aggs; j++ {
		followers = append(followers, dialClient(t, aggLns[j], nodes[j].ID))
	}
	defer startInitiator(&Initiator{Node: nodes[0], Followers: followers, PeerTimeout: 30 * time.Second})()

	// --- Party processes -------------------------------------------------
	spec := dataset.Spec{Name: "e2e", C: 1, H: 12, W: 12, Classes: 4}
	train, _ := dataset.TrainTest(spec, parties*16, 8, []byte("e2e-data"))
	shards := dataset.SplitIID(train, parties, []byte("e2e-split"))
	build := func() *nn.Network { return nn.ConvNet8(1, 12, 12, 4) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: rounds, LocalEpochs: 1, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("e2e-cfg"),
	}

	runParty := func(idx int) (tensor.Vector, error) {
		id := fmt.Sprintf("P%d", idx+1)
		ap := dialAP()
		// Dial aggregators, then run the whole Phase II fan-out in
		// parallel (token-key fetches share the multiplexed AP
		// connection).
		clients := make([]*AggregatorClient, aggs)
		for j, ln := range aggLns {
			conn, err := ln.Dial()
			if err != nil {
				return nil, err
			}
			clients[j] = &AggregatorClient{ID: fmt.Sprintf("agg-%d", j+1), C: transport.NewClient(conn)}
		}
		step := &RoundStep{Fleet: &Fleet{Clients: clients, Timeout: 30 * time.Second}, Shuffle: true, Deadline: 30 * time.Second}
		ctx := context.Background()
		if err := step.Join(ctx, id, func(aggID string) ([]byte, error) { return ap.TokenPubKey(ctx, aggID) }, attest.NewNonce, attest.VerifyChallenge); err != nil {
			return nil, err
		}
		if err := ap.RegisterParty(ctx, id); err != nil {
			return nil, err
		}
		permKey, err := ap.PermKey(ctx, id)
		if err != nil {
			return nil, err
		}
		if step.Shuffler, err = NewShuffler(permKey); err != nil {
			return nil, err
		}
		if step.Mapper, err = NewMapper(build().NumParams(), EqualProportions(aggs), []byte("e2e-mapper")); err != nil {
			return nil, err
		}
		net := build()
		net.Init([]byte("e2e-init"))
		return trainParty(ctx, step, fl.NewParty(id, build, shards[idx], cfg), net.Params(), rounds,
			func(round int) ([]byte, error) { return ap.RoundID(ctx, round) }, nil, nil)
	}

	// P1 may upload round 1 before P2 has registered, and a node that knows
	// one party would fuse without the other: pre-register both everywhere.
	for j := range nodes {
		for p := 0; p < parties; p++ {
			nodes[j].Register(fmt.Sprintf("P%d", p+1))
		}
	}
	final := runParties(t, parties, runParty)

	// And it equals the centralized FFL baseline exactly.
	baselineParties := make([]*fl.Party, parties)
	for i := range baselineParties {
		baselineParties[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
	}
	net := build()
	net.Init([]byte("e2e-init"))
	global := net.Params()
	for round := 1; round <= rounds; round++ {
		updates := make([]tensor.Vector, parties)
		weights := make([]float64, parties)
		for i, p := range baselineParties {
			u, _, err := p.LocalUpdate(global, round)
			if err != nil {
				t.Fatal(err)
			}
			updates[i] = u
			weights[i] = float64(shards[i].Len())
		}
		global, err = agg.IterativeAverage{}.Aggregate(updates, weights)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range global {
		if diff := global[i] - final[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("networked DeTA differs from centralized baseline at %d: %v vs %v", i, final[i], global[i])
		}
	}
}
