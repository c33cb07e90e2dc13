// Non-IID federated training in the Figure 7 configuration: eight parties
// with a 90-10 class skew (each party's shard is dominated by two classes),
// VGG-16-lite transfer learning on document-like images, DeTA aggregation.
// Prints the per-party class histograms and the convergence trace.
//
//	go run ./examples/noniid_skew -rounds 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"strings"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
)

func main() {
	rounds := flag.Int("rounds", 5, "training rounds")
	samples := flag.Int("samples", 32, "samples per party")
	flag.Parse()

	spec := dataset.RVLCDIP
	train, test := dataset.TrainTest(spec, 8**samples, *samples, []byte("skew-example"))
	shards := dataset.SplitSkew(train, 8, 2, 0.9, []byte("skew-example-split"))

	fmt.Println("per-party class histograms (90-10 skew, 2 dominant classes each):")
	for p, shard := range shards {
		fmt.Printf("  P%d: %v\n", p+1, dataset.ClassHistogram(shard))
	}

	build := func() *nn.Network {
		net, head := nn.VGG16Lite(spec.C, spec.H, spec.W, spec.Classes)
		// Transfer learning: the convolutional stack plays the paper's
		// ImageNet-pretrained VGG-16; only the replaced FC head trains.
		net.FreezePrefix(head)
		return net
	}
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: *rounds, LocalEpochs: 1, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("skew-example-cfg"),
	}
	ps := make([]*fl.Party, 8)
	for i := range ps {
		ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
	}
	session := &core.Session{
		Cfg:          cfg,
		Opts:         core.Options{NumAggregators: 3, Shuffle: true},
		Build:        build,
		Parties:      ps,
		Test:         test,
		InitSeed:     []byte("skew-example-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
	}
	hist, err := session.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nround  train-loss  test-loss  accuracy")
	for _, r := range hist.Rounds {
		fmt.Printf("%5d  %10.4f  %9.4f  %8.3f\n", r.Round, r.TrainLoss, r.TestLoss, r.Accuracy)
	}

	// Per-class view: under 90-10 skew, class-level recall is the honest
	// picture (a few dominant classes can hide the tail).
	cm, err := fl.EvaluateConfusion(build, session.FinalParams, test)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nconfusion matrix of the final global model:")
	var sb strings.Builder
	cm.Render(&sb)
	fmt.Print(sb.String())
}
