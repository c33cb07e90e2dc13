package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
)

// Ablations probe DeTA's design choices beyond the paper's headline
// experiments (DESIGN.md §4, `ablation-*` rows).

// AblationShuffleCost measures the party-side transform cost (partition +
// shuffle + inverse) as the model-update size grows — quantifying the
// "inexpensive compared to SMC" claim of §8.2.
func AblationShuffleCost(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: party-side transform cost vs update size (3 aggregators)",
		Header: []string{"Params", "Partition+Shuffle", "RevShuffle+Merge", "Total/param"},
	}
	sh, err := core.NewShuffler([]byte("ablation-shuffle-key-0123456789ab"))
	if err != nil {
		return nil, err
	}
	for _, n := range []int{1 << 10, 1 << 13, 1 << 16, 1 << 18} {
		m, err := core.NewMapper(n, core.EqualProportions(3), []byte("ablation"))
		if err != nil {
			return nil, err
		}
		v := make(tensor.Vector, n)
		st := rng.NewStream([]byte("ablation-values"), "v")
		for i := range v {
			v[i] = st.NormFloat64()
		}
		roundID := []byte("ablation-round")

		reps := 5
		start := time.Now()
		var frags []tensor.Vector
		for r := 0; r < reps; r++ {
			frags, err = core.Transform(m, sh, v, roundID, true)
			if err != nil {
				return nil, err
			}
		}
		fwd := time.Since(start) / time.Duration(reps)

		start = time.Now()
		for r := 0; r < reps; r++ {
			if _, err := core.InverseTransform(m, sh, frags, roundID, true); err != nil {
				return nil, err
			}
		}
		inv := time.Since(start) / time.Duration(reps)

		perParam := float64(fwd+inv) / float64(n)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fwd.String(), inv.String(),
			fmt.Sprintf("%.1fns", perParam),
		})
	}
	return t, nil
}

// AblationAggregatorCount sweeps the decentralization factor K and reports
// training latency and final accuracy, showing that accuracy is invariant
// and overhead grows mildly with K.
func AblationAggregatorCount(sc Scale) (*Table, error) {
	side := 12
	spec := dataset.Spec{Name: "ablation-aggs", C: 1, H: side, W: side, Classes: 4}
	train, test := dataset.TrainTest(spec, 4*sc.SamplesPerParty, sc.TestSamples, []byte("ablation-aggs-data"))
	build := func() *nn.Network { return nn.ConvNet8(1, side, side, 4) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: 3, LocalEpochs: 1,
		BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum, Seed: []byte("ablation-aggs-cfg"),
	}
	t := &Table{
		Title:  "Ablation: decentralization factor K (MNIST-like, 4 parties)",
		Header: []string{"K", "FinalAccuracy", "TrainLatency", "SetupLatency"},
	}
	for _, k := range []int{1, 2, 3, 4, 6} {
		shards := dataset.SplitIID(train, 4, []byte("ablation-split"))
		ps := make([]*fl.Party, 4)
		for i := range ps {
			ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
		}
		s := &core.Session{
			Cfg:   cfg,
			Opts:  core.Options{NumAggregators: k, Shuffle: true, MapperSeed: []byte("ablation-mapper")},
			Build: build, Parties: ps, Test: test,
			InitSeed:     []byte("ablation-init"),
			NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
		}
		hist, err := s.Run(context.Background())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(k),
			fmt.Sprintf("%.4f", hist.Final().Accuracy),
			hist.Final().Cumulative.String(),
			s.SetupLatency.String(),
		})
	}
	t.Notes = append(t.Notes, "accuracy must be identical across K (coordinate-wise aggregation is partition-invariant)")
	return t, nil
}

// AblationAuthCost measures the two-phase authentication protocol's costs:
// Phase I per aggregator, the deployed boot (endorsement, launch,
// attestation and token injection over an in-process AP), and Phase II
// challenge-response per (party, aggregator) pair.
func AblationAuthCost(sc Scale) (*Table, error) {
	_, ap, stop, err := core.ServeAP()
	if err != nil {
		return nil, err
	}
	defer stop()
	ctx := context.Background()

	const reps = 20
	start := time.Now()
	var cvm *sev.CVM
	for i := 0; i < reps; i++ {
		if cvm, err = core.BootAggregatorCVM(ctx, ap, "agg-ph1"); err != nil {
			return nil, err
		}
	}
	phase1 := time.Since(start) / reps

	// Phase II timing against the last booted aggregator.
	node, err := core.NewAggregatorNode("agg-ph1", agg.IterativeAverage{}, cvm)
	if err != nil {
		return nil, err
	}
	pub, err := ap.TokenPubKey(ctx, "agg-ph1")
	if err != nil {
		return nil, err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		nonce, err := attest.NewNonce()
		if err != nil {
			return nil, err
		}
		sig, err := node.SignChallenge(nonce)
		if err != nil {
			return nil, err
		}
		if err := attest.VerifyChallenge(pub, nonce, sig); err != nil {
			return nil, err
		}
	}
	phase2 := time.Since(start) / reps

	t := &Table{
		Title:  "Ablation: two-phase authentication cost",
		Header: []string{"Stage", "Cost"},
		Rows: [][]string{
			{"Phase I (endorse+launch+attest+provision, per aggregator)", phase1.String()},
			{"Phase II (challenge-response, per party x aggregator)", phase2.String()},
		},
		Notes: []string{"one-time costs at training bootstrap; amortized over all rounds"},
	}
	return t, nil
}

// AblationKeySpace tabulates the brute-force cost model of §4.2: an
// order-recovery attack must search the permutation key space, so the cost
// is O(2^|key| * T) regardless of parameter values.
func AblationKeySpace(sc Scale) (*Table, error) {
	t := &Table{
		Title:  "Ablation: order-recovery attack cost O(2^|key| * T)",
		Header: []string{"KeyBits", "KeySpace", "Years@1e12 attempts/s"},
	}
	for _, bits := range []int{64, 128, 192, 256} {
		space := math.Pow(2, float64(bits))
		years := space / 1e12 / (365.25 * 24 * 3600)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(bits),
			fmt.Sprintf("%.3g", space),
			fmt.Sprintf("%.3g", years),
		})
	}
	t.Notes = append(t.Notes,
		"the permutation changes every round; a recovered round key reveals one round only",
		"parameter-value statistics are irrelevant to this cost (§4.2)")
	return t, nil
}
