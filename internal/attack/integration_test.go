package attack

import (
	"context"
	"testing"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/nn"
)

// TestEndToEndAggregatorBreach plays the paper's worst-case §6 scenario
// against the real system: a party computes a FedSGD gradient for one
// training sample, transforms it with a production Mapper+Shuffler, and
// uploads it to attested aggregator nodes. The adversary then breaches an
// aggregator (LeakRoundFragments), obtains exactly what that aggregator
// holds, and runs DLG with black-box model access. The reconstruction must
// fail — while the same attack against the raw (untransformed) gradient
// succeeds.
func TestEndToEndAggregatorBreach(t *testing.T) {
	if testing.Short() {
		t.Skip("reconstruction attack is slow")
	}
	// Victim setup: one sample, small LeNet, single-sample gradient (the
	// FedSGD upload the attacks target).
	spec := dataset.Spec{Name: "breach", C: 1, H: 8, W: 8, Classes: 4}
	sample := dataset.Make(spec, 1, []byte("breach-data")).At(0)
	net := nn.LeNetDLG(1, 8, 8, 4)
	net.Init([]byte("breach-model"))
	oracle := NewOracle(net)
	grad, err := oracle.VictimGradient(sample.X, sample.Label)
	if err != nil {
		t.Fatal(err)
	}

	// Real trust bootstrap: two attested aggregators.
	_, ap, stop, err := core.ServeAP()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	ctx := context.Background()
	nodes := make([]*core.AggregatorNode, 2)
	for j := range nodes {
		id := []string{"agg-1", "agg-2"}[j]
		cvm, err := core.BootAggregatorCVM(ctx, ap, id)
		if err != nil {
			t.Fatal(err)
		}
		nodes[j], err = core.NewAggregatorNode(id, agg.IterativeAverage{}, cvm)
		if err != nil {
			t.Fatal(err)
		}
		nodes[j].Register("victim")
	}

	// Party-side transform and upload: 60/40 split, shuffling on.
	mapper, err := core.NewMapper(len(grad), []float64{0.6, 0.4}, []byte("breach-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	if err := ap.RegisterParty(ctx, "victim"); err != nil {
		t.Fatal(err)
	}
	permKey, err := ap.PermKey(ctx, "victim")
	if err != nil {
		t.Fatal(err)
	}
	shuffler, err := core.NewShuffler(permKey)
	if err != nil {
		t.Fatal(err)
	}
	roundID, err := ap.RoundID(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	frags, err := core.Transform(mapper, shuffler, grad, roundID, true)
	if err != nil {
		t.Fatal(err)
	}
	for j, node := range nodes {
		if err := node.Upload(1, "victim", frags[j], 1); err != nil {
			t.Fatal(err)
		}
	}

	// Breach aggregator 1 (holding the 60% partition) and attack.
	leak := nodes[0].LeakRoundFragments(1)
	stolen := leak["victim"]
	if stolen == nil {
		t.Fatal("breach yielded nothing")
	}
	obs := &Observation{Scenario: ScenarioP06Shuffle, Observed: stolen}
	cfg := DLGConfig{Iterations: 150, LR: 0.3}
	breached, err := DLG(oracle, obs, sample.X, sample.Label, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Baseline: same attack with the untransformed gradient.
	full := &Observation{Scenario: ScenarioFull, Observed: grad}
	baseline, err := DLG(oracle, full, sample.X, sample.Label, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if baseline.MSE > 1e-2 {
		t.Fatalf("baseline attack failed (MSE %v); breach comparison meaningless", baseline.MSE)
	}
	if breached.MSE < 100*baseline.MSE {
		t.Fatalf("breached-aggregator attack too successful: MSE %v vs baseline %v",
			breached.MSE, baseline.MSE)
	}
	if breached.MSE < 1e-1 {
		t.Fatalf("breached-aggregator reconstruction recognizable: MSE %v", breached.MSE)
	}

	// Sanity: the leaked fragment really is what traveled on the wire —
	// the shuffled 60% partition, not the raw gradient prefix.
	plain, err := mapper.Partition(grad)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range plain[0] {
		if plain[0][i] != stolen[i] {
			diff++
		}
	}
	if diff < len(plain[0])/2 {
		t.Fatal("leaked fragment was not shuffled")
	}
}
