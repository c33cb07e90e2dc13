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

// AblationDropout trains DeTA with a flaky party that misses every other
// round, using quorum-based aggregation (Options.Quorum). It demonstrates
// the paper's §8.2 asynchrony argument: unlike SMC cohort protocols, DeTA
// tolerates stragglers — the federation keeps converging.
func AblationDropout(sc Scale) (*Table, error) {
	side := 12
	spec := dataset.Spec{Name: "dropout", C: 1, H: side, W: side, Classes: 4}
	train, test := dataset.TrainTest(spec, 4*sc.SamplesPerParty, sc.TestSamples, []byte("dropout-data"))
	build := func() *nn.Network { return nn.ConvNet8(1, side, side, 4) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: 6, LocalEpochs: 1,
		BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum, Seed: []byte("dropout-cfg"),
	}

	run := func(flaky bool) (*fl.History, error) {
		shards := dataset.SplitIID(train, 4, []byte("dropout-split"))
		ps := make([]*fl.Party, 4)
		for i := range ps {
			ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
		}
		s := &core.Session{
			Cfg:   cfg,
			Opts:  core.Options{NumAggregators: 3, Shuffle: true, Quorum: 3, MapperSeed: []byte("dropout-mapper")},
			Build: build, Parties: ps, Test: test,
			InitSeed:     []byte("dropout-init"),
			NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
		}
		if flaky {
			// P4 participates only in even rounds.
			s.Availability = func(partyID string, round int) bool {
				return partyID != "P4" || round%2 == 0
			}
		}
		return s.Run(context.Background())
	}

	full, err := run(false)
	if err != nil {
		return nil, err
	}
	flaky, err := run(true)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "Ablation: straggler tolerance via quorum aggregation (4 parties, quorum 3, P4 flaky)",
		Header: []string{"Round", "Loss (all present)", "Loss (P4 flaky)", "Acc (all)", "Acc (flaky)"},
	}
	for i := range full.Rounds {
		f, d := full.Rounds[i], flaky.Rounds[i]
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(f.Round),
			fmt.Sprintf("%.4f", f.TestLoss),
			fmt.Sprintf("%.4f", d.TestLoss),
			fmt.Sprintf("%.3f", f.Accuracy),
			fmt.Sprintf("%.3f", d.Accuracy),
		})
	}
	t.Notes = append(t.Notes, "rounds where P4 is absent fuse the remaining three parties; training never stalls")
	return t, nil
}
