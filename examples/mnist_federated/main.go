// MNIST federated training in the Figure 5 configuration: four parties,
// three SEV-protected aggregators, selectable aggregation algorithm.
//
//	go run ./examples/mnist_federated -algorithm median -rounds 10
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
)

func main() {
	algorithm := flag.String("algorithm", "avg", "avg | median | trimmed | krum | flame")
	rounds := flag.Int("rounds", 10, "training rounds")
	epochs := flag.Int("epochs", 3, "local epochs per round")
	samples := flag.Int("samples", 48, "samples per party")
	side := flag.Int("side", 16, "image side length (28 = paper scale)")
	aggregators := flag.Int("aggregators", 3, "DeTA aggregator count")
	flag.Parse()

	newAlg, err := pickAlgorithm(*algorithm)
	if err != nil {
		log.Fatal(err)
	}

	spec := dataset.Spec{Name: "mnist-syn", C: 1, H: *side, W: *side, Classes: 10}
	train, test := dataset.TrainTest(spec, 4**samples, *samples, []byte("mnist-example"))
	shards := dataset.SplitIID(train, 4, []byte("mnist-example-split"))
	build := func() *nn.Network { return nn.ConvNet8(spec.C, spec.H, spec.W, spec.Classes) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: *rounds, LocalEpochs: *epochs, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("mnist-example-cfg"),
	}
	ps := make([]*fl.Party, 4)
	for i := range ps {
		ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
	}
	session := &core.Session{
		Cfg:          cfg,
		Opts:         core.Options{NumAggregators: *aggregators, Shuffle: true},
		Build:        build,
		Parties:      ps,
		Test:         test,
		InitSeed:     []byte("mnist-example-init"),
		NewAlgorithm: newAlg,
	}
	hist, err := session.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DeTA, %s, %d aggregators, 4 parties, %d rounds x %d epochs\n\n",
		*algorithm, *aggregators, *rounds, *epochs)
	fmt.Println("round  train-loss  test-loss  accuracy  cumulative")
	for _, r := range hist.Rounds {
		fmt.Printf("%5d  %10.4f  %9.4f  %8.3f  %v\n",
			r.Round, r.TrainLoss, r.TestLoss, r.Accuracy, r.Cumulative.Round(1e6))
	}
}

func pickAlgorithm(name string) (func() agg.Algorithm, error) {
	switch name {
	case "avg":
		return func() agg.Algorithm { return agg.IterativeAverage{} }, nil
	case "median":
		return func() agg.Algorithm { return agg.CoordinateMedian{} }, nil
	case "trimmed":
		return func() agg.Algorithm { return agg.TrimmedMean{Trim: 1} }, nil
	case "krum":
		return func() agg.Algorithm { return agg.Krum{F: 1} }, nil
	case "flame":
		return func() agg.Algorithm { return agg.FLAMELite{} }, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}
