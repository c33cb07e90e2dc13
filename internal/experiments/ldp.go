package experiments

import (
	"context"
	"fmt"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
)

// AblationLDP trains DeTA with local differential privacy at several
// privacy budgets and reports the accuracy cost — the §8.1 point that LDP
// composes with DeTA (perturbation happens on-device, before the
// transform) but charges utility for privacy, unlike DeTA's own layers
// which are utility-free.
func AblationLDP(sc Scale) (*Table, error) {
	side := 12
	spec := dataset.Spec{Name: "ldp-ablation", C: 1, H: side, W: side, Classes: 4}
	train, test := dataset.TrainTest(spec, 4*sc.SamplesPerParty, sc.TestSamples, []byte("ldp-abl-data"))
	build := func() *nn.Network { return nn.ConvNet8(1, side, side, 4) }

	run := func(ldp *fl.LDPConfig) (*fl.History, error) {
		cfg := fl.Config{
			Mode: fl.FedAvg, Rounds: 5, LocalEpochs: 1,
			BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum,
			Seed: []byte("ldp-abl-cfg"), LDP: ldp,
		}
		shards := dataset.SplitIID(train, 4, []byte("ldp-abl-split"))
		ps := make([]*fl.Party, 4)
		for i := range ps {
			ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
		}
		s := &core.Session{
			Cfg:   cfg,
			Opts:  core.Options{NumAggregators: 3, Shuffle: true, MapperSeed: []byte("ldp-abl-mapper")},
			Build: build, Parties: ps, Test: test,
			InitSeed:     []byte("ldp-abl-init"),
			NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
		}
		return s.Run(context.Background())
	}

	t := &Table{
		Title:  "Ablation: local differential privacy under DeTA (Gaussian mechanism, clip 10, delta 1e-5)",
		Header: []string{"Epsilon", "NoiseSigma", "FinalLoss", "FinalAccuracy"},
	}
	cases := []struct {
		label string
		ldp   *fl.LDPConfig
	}{
		{"off", nil},
		{"1e4", &fl.LDPConfig{Epsilon: 1e4, Delta: 1e-5, ClipNorm: 10, Seed: []byte("ldp-abl")}},
		{"1e3", &fl.LDPConfig{Epsilon: 1e3, Delta: 1e-5, ClipNorm: 10, Seed: []byte("ldp-abl")}},
		{"1e2", &fl.LDPConfig{Epsilon: 1e2, Delta: 1e-5, ClipNorm: 10, Seed: []byte("ldp-abl")}},
	}
	for _, c := range cases {
		hist, err := run(c.ldp)
		if err != nil {
			return nil, err
		}
		sigma := "0"
		if c.ldp != nil {
			sigma = fmt.Sprintf("%.4f", c.ldp.NoiseSigma())
		}
		final := hist.Final()
		t.Rows = append(t.Rows, []string{
			c.label, sigma,
			fmt.Sprintf("%.4f", final.TestLoss),
			fmt.Sprintf("%.4f", final.Accuracy),
		})
	}
	t.Notes = append(t.Notes,
		"epsilons are per-round budgets at toy scale; the monotone accuracy cost is the reproduced shape",
		"perturbation applies to the update delta on-device, then DeTA transforms the noisy update (§8.1)")
	return t, nil
}
