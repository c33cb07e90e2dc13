// Quickstart: train a small federated model with DeTA — decentralized,
// shuffled, attested aggregation — and verify the result is bit-identical
// to a classic single-aggregator run.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
)

func main() {
	// A synthetic MNIST-like problem: 4 parties, IID shards.
	spec := dataset.Spec{Name: "quickstart", C: 1, H: 16, W: 16, Classes: 10}
	train, test := dataset.TrainTest(spec, 4*32, 32, []byte("quickstart-data"))
	shards := dataset.SplitIID(train, 4, []byte("quickstart-split"))

	build := func() *nn.Network { return nn.ConvNet8(spec.C, spec.H, spec.W, spec.Classes) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: 5, LocalEpochs: 2, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("quickstart-cfg"),
	}
	parties := func() []*fl.Party {
		ps := make([]*fl.Party, len(shards))
		for i, s := range shards {
			ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, s, cfg)
		}
		return ps
	}

	// DeTA: three SEV-attested aggregators, randomized partitioning,
	// per-round parameter shuffling. Setup performs the full two-phase
	// authentication protocol.
	deta := &core.Session{
		Cfg:          cfg,
		Opts:         core.Options{NumAggregators: 3, Shuffle: true},
		Build:        build,
		Parties:      parties(),
		Test:         test,
		InitSeed:     []byte("quickstart-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
	}
	histDeTA, err := deta.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trust bootstrap (Phase I + II): %v\n", deta.SetupLatency)
	fmt.Printf("model mapper: %d params split %v across %d aggregators\n\n",
		deta.Mapper.NumParams(), deta.Mapper.Counts(), deta.Mapper.NumAggregators())

	// Baseline: one central aggregator, same everything.
	ffl := &fl.Session{
		Cfg: cfg, Algorithm: agg.IterativeAverage{}, Build: build,
		Parties: parties(), Test: test, InitSeed: []byte("quickstart-init"),
	}
	histFFL, err := ffl.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("round  DeTA-loss  FFL-loss   DeTA-acc  FFL-acc")
	for i := range histDeTA.Rounds {
		d, f := histDeTA.Rounds[i], histFFL.Rounds[i]
		fmt.Printf("%5d  %9.4f  %9.4f  %8.3f  %8.3f\n",
			d.Round, d.TestLoss, f.TestLoss, d.Accuracy, f.Accuracy)
	}
	final := histDeTA.Final()
	fmt.Printf("\nfinal accuracy: DeTA %.3f vs FFL %.3f (identical by construction)\n",
		final.Accuracy, histFFL.Final().Accuracy)
	fmt.Printf("latency: DeTA %v vs FFL %v\n",
		final.Cumulative, histFFL.Final().Cumulative)
}
