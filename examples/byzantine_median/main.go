// Byzantine robustness under DeTA: one party uploads poisoned fragments;
// coordinate-median aggregation (running independently inside each
// SEV-protected aggregator, on shuffled fragments) discards the poison,
// while plain averaging is corrupted. Demonstrates the paper's §4.2 claim
// that Byzantine-robust algorithms compose with partitioning and
// shuffling, using the aggregator-node API directly.
//
//	go run ./examples/byzantine_median
package main

import (
	"context"
	"fmt"
	"log"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/rng"
	"deta/internal/tensor"
)

const paramCount = 1000

func main() {
	// Honest updates cluster around 1.0; the Byzantine party uploads huge
	// opposite-signed values.
	st := rng.NewStream([]byte("byzantine-example"), "updates")
	updates := map[string]tensor.Vector{}
	for _, id := range []string{"P1", "P2", "P3", "P4"} {
		v := make(tensor.Vector, paramCount)
		for i := range v {
			v[i] = 1 + 0.05*st.NormFloat64()
		}
		updates[id] = v
	}
	poison := make(tensor.Vector, paramCount)
	for i := range poison {
		poison[i] = -100
	}
	updates["P5-byzantine"] = poison

	for _, algName := range []string{"iterative-averaging", "coordinate-median"} {
		merged, err := runDeTARound(algName, updates)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-20s  aggregated mean %+8.3f  (honest updates average ~1.0)\n",
			algName, tensor.Mean(merged))
	}
	fmt.Println("\ncoordinate median survives the Byzantine upload; averaging is destroyed.")
}

// runDeTARound drives one full DeTA round at the aggregator-node API
// level: trust bootstrap, transform, upload to three nodes, fuse, download
// and inverse-transform.
func runDeTARound(algName string, updates map[string]tensor.Vector) (tensor.Vector, error) {
	newAlg := func() agg.Algorithm {
		if algName == "coordinate-median" {
			return agg.CoordinateMedian{}
		}
		return agg.IterativeAverage{}
	}

	// Trust bootstrap: an in-process AP and three CVMs booted through it.
	_, ap, stop, err := core.ServeAP()
	if err != nil {
		return nil, err
	}
	defer stop()
	ctx := context.Background()
	nodes := make([]*core.AggregatorNode, 3)
	for j := range nodes {
		id := fmt.Sprintf("agg-%d", j+1)
		cvm, err := core.BootAggregatorCVM(ctx, ap, id)
		if err != nil {
			return nil, err
		}
		nodes[j], err = core.NewAggregatorNode(id, newAlg(), cvm)
		if err != nil {
			return nil, err
		}
	}

	// Shared mapper + shuffler.
	mapper, err := core.NewMapper(paramCount, core.EqualProportions(3), []byte("byz-mapper"))
	if err != nil {
		return nil, err
	}
	if err := ap.RegisterParty(ctx, "any"); err != nil {
		return nil, err
	}
	permKey, err := ap.PermKey(ctx, "any")
	if err != nil {
		return nil, err
	}
	shuffler, err := core.NewShuffler(permKey)
	if err != nil {
		return nil, err
	}
	roundID, err := ap.RoundID(ctx, 1)
	if err != nil {
		return nil, err
	}

	// Every party (including the Byzantine one) registers and uploads
	// transformed fragments.
	for id := range updates {
		for _, node := range nodes {
			node.Register(id)
		}
	}
	for id, update := range updates {
		frags, err := core.Transform(mapper, shuffler, update, roundID, true)
		if err != nil {
			return nil, err
		}
		for j, node := range nodes {
			if err := node.Upload(1, id, frags[j], 1); err != nil {
				return nil, err
			}
		}
	}

	// Fuse and reassemble.
	merged := make([]tensor.Vector, len(nodes))
	for j, node := range nodes {
		if err := node.Aggregate(1); err != nil {
			return nil, err
		}
		merged[j], err = node.Download(1, "P1")
		if err != nil {
			return nil, err
		}
	}
	return core.InverseTransform(mapper, shuffler, merged, roundID, true)
}
