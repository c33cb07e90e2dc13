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

// pairResult holds matched DeTA and FFL runs of one workload.
type pairResult struct {
	DeTA *fl.History
	FFL  *fl.History
}

// runPair trains the same workload under both systems with identical
// initial models, data splits, and hyperparameters — the comparison every
// figure makes. FFL runs first unless detaFirst: a caller that repeats a
// pair alternates the order, so that load from other processes falls on
// both sides alike.
func runPair(cfg fl.Config, build func() *nn.Network, train, test *dataset.Dataset,
	parties int, newAlg func() agg.Algorithm, aggregators int, splitSeed []byte,
	split func(*dataset.Dataset, int, []byte) []*dataset.Dataset, detaFirst bool) (*pairResult, error) {

	makeParties := func() []*fl.Party {
		shards := split(train, parties, splitSeed)
		ps := make([]*fl.Party, parties)
		for i := range ps {
			ps[i] = fl.NewParty(fmt.Sprintf("P%d", i+1), build, shards[i], cfg)
		}
		return ps
	}

	p := &pairResult{}
	runFFL := func() (err error) {
		ffl := &fl.Session{
			Cfg: cfg, Algorithm: newAlg(), Build: build,
			Parties: makeParties(), Test: test, InitSeed: []byte("figure-init"),
		}
		if p.FFL, err = ffl.Run(); err != nil {
			return fmt.Errorf("experiments: FFL run: %w", err)
		}
		return nil
	}
	runDeTA := func() (err error) {
		deta := &core.Session{
			Cfg:   cfg,
			Opts:  core.Options{NumAggregators: aggregators, Shuffle: true, MapperSeed: []byte("figure-mapper")},
			Build: build, Parties: makeParties(), Test: test,
			InitSeed: []byte("figure-init"), NewAlgorithm: newAlg,
		}
		if p.DeTA, err = deta.Run(context.Background()); err != nil {
			return fmt.Errorf("experiments: DeTA run: %w", err)
		}
		return nil
	}
	first, second := runFFL, runDeTA
	if detaFirst {
		first, second = runDeTA, runFFL
	}
	if err := first(); err != nil {
		return nil, err
	}
	if err := second(); err != nil {
		return nil, err
	}
	return p, nil
}

// figures builds the loss/accuracy figure and the latency figure from a
// matched pair, in the layout of Figures 5-7.
func (p *pairResult) figures(title string) (lossAcc, latency *Figure) {
	n := len(p.DeTA.Rounds)
	x := make([]float64, n)
	detaLoss := make([]float64, n)
	fflLoss := make([]float64, n)
	detaAcc := make([]float64, n)
	fflAcc := make([]float64, n)
	detaLat := make([]float64, n)
	fflLat := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = float64(i + 1)
		detaLoss[i] = p.DeTA.Rounds[i].TestLoss
		detaAcc[i] = p.DeTA.Rounds[i].Accuracy
		detaLat[i] = p.DeTA.Rounds[i].Cumulative.Seconds()
		if i < len(p.FFL.Rounds) {
			fflLoss[i] = p.FFL.Rounds[i].TestLoss
			fflAcc[i] = p.FFL.Rounds[i].Accuracy
			fflLat[i] = p.FFL.Rounds[i].Cumulative.Seconds()
		}
	}
	lossAcc = &Figure{
		Title: title + " — Loss/Accuracy", XLabel: "Round", X: x,
		Series: []Series{
			{Name: "DETA-Loss", Y: detaLoss},
			{Name: "FFL-Loss", Y: fflLoss},
			{Name: "DETA-Accuracy", Y: detaAcc},
			{Name: "FFL-Accuracy", Y: fflAcc},
		},
	}
	latency = &Figure{
		Title: title + " — Cumulative Latency (s)", XLabel: "Round", X: x,
		Series: []Series{
			{Name: "DETA", Y: detaLat},
			{Name: "FFL", Y: fflLat},
		},
	}
	overhead := 0.0
	if last := len(p.FFL.Rounds) - 1; last >= 0 && p.FFL.Rounds[last].Cumulative > 0 {
		overhead = p.DeTA.Final().Cumulative.Seconds()/p.FFL.Rounds[last].Cumulative.Seconds() - 1
	}
	latency.Notes = append(latency.Notes, fmt.Sprintf("DETA latency overhead vs FFL: %+.2fx", overhead))
	return lossAcc, latency
}

// mnistWorkload builds the Figure 5 MNIST setup.
func mnistWorkload(sc Scale) (fl.Config, func() *nn.Network, *dataset.Dataset, *dataset.Dataset) {
	side := sc.MNISTSide
	spec := dataset.Spec{Name: "mnist-syn", C: 1, H: side, W: side, Classes: 10}
	train, test := dataset.TrainTest(spec, 4*sc.SamplesPerParty, sc.TestSamples, []byte("fig5-data"))
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: sc.MNISTRounds, LocalEpochs: sc.MNISTLocalEpochs,
		BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum, Seed: []byte("fig5-cfg"),
	}
	build := func() *nn.Network { return nn.ConvNet8(1, side, side, 10) }
	return cfg, build, train, test
}

// Fig5a reproduces Figures 5a+5d: MNIST with Iterative Averaging, four
// parties, DeTA (three aggregators) vs FFL.
func Fig5a(sc Scale) (*Figure, *Figure, error) { return fig5a(sc, false) }

// fig5a is Fig5a with the order of the pair's runs chosen (runPair).
func fig5a(sc Scale, detaFirst bool) (*Figure, *Figure, error) {
	cfg, build, train, test := mnistWorkload(sc)
	pair, err := runPair(cfg, build, train, test, 4,
		func() agg.Algorithm { return agg.IterativeAverage{} }, sc.Aggregators,
		[]byte("fig5-split"), dataset.SplitIID, detaFirst)
	if err != nil {
		return nil, nil, err
	}
	la, lat := pair.figures("Figure 5a/5d: MNIST Iterative Averaging (IID, 4 parties)")
	return la, lat, nil
}

// Fig5b reproduces Figures 5b+5e: MNIST with Coordinate Median.
func Fig5b(sc Scale) (*Figure, *Figure, error) {
	cfg, build, train, test := mnistWorkload(sc)
	pair, err := runPair(cfg, build, train, test, 4,
		func() agg.Algorithm { return agg.CoordinateMedian{} }, sc.Aggregators,
		[]byte("fig5-split"), dataset.SplitIID, false)
	if err != nil {
		return nil, nil, err
	}
	la, lat := pair.figures("Figure 5b/5e: MNIST Coordinate Median (IID, 4 parties)")
	return la, lat, nil
}

// Fig5c reproduces Figures 5c+5f: MNIST with Paillier-based fusion. The
// shared Paillier key plays the paper's trusted-key-broker role; both
// systems run the full encrypt/fuse/decrypt path, so the latency comparison
// captures the effect the paper reports (partitioning parallelizes the
// dominant crypto cost).
func Fig5c(sc Scale) (*Figure, *Figure, error) {
	cfg, build, train, test := mnistWorkload(sc)
	cfg.Rounds = sc.PaillierRounds
	pf, err := agg.NewPaillierFusion(sc.PaillierBits)
	if err != nil {
		return nil, nil, err
	}
	pair, err := runPair(cfg, build, train, test, 4,
		func() agg.Algorithm { return pf }, sc.Aggregators,
		[]byte("fig5-split"), dataset.SplitIID, false)
	if err != nil {
		return nil, nil, err
	}
	la, lat := pair.figures(fmt.Sprintf("Figure 5c/5f: MNIST Paillier Fusion (IID, 4 parties, %d-bit keys)", sc.PaillierBits))
	return la, lat, nil
}

// Fig6 reproduces Figure 6: CIFAR-10 with four and eight parties.
func Fig6(sc Scale) (*Figure, *Figure, error) {
	side := sc.CIFARSide
	spec := dataset.Spec{Name: "cifar10-syn", C: 3, H: side, W: side, Classes: 10}
	build := func() *nn.Network { return nn.ConvNet23(3, side, side, 10) }

	x := []float64{}
	var series []Series
	var latSeries []Series
	var notes []string
	for _, parties := range []int{4, 8} {
		train, test := dataset.TrainTest(spec, parties*sc.SamplesPerParty, sc.TestSamples, []byte("fig6-data"))
		cfg := fl.Config{
			Mode: fl.FedAvg, Rounds: sc.CIFARRounds, LocalEpochs: 1,
			BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum, Seed: []byte("fig6-cfg"),
		}
		pair, err := runPair(cfg, build, train, test, parties,
			func() agg.Algorithm { return agg.IterativeAverage{} }, sc.Aggregators,
			[]byte("fig6-split"), dataset.SplitIID, false)
		if err != nil {
			return nil, nil, err
		}
		la, lat := pair.figures("")
		if len(x) == 0 {
			x = la.X
		}
		suffix := fmt.Sprintf("-%dP", parties)
		for _, s := range la.Series {
			series = append(series, Series{Name: s.Name + suffix, Y: s.Y})
		}
		for _, s := range lat.Series {
			latSeries = append(latSeries, Series{Name: s.Name + suffix, Y: s.Y})
		}
		notes = append(notes, fmt.Sprintf("%d parties: %s", parties, lat.Notes[0]))
	}
	lossAcc := &Figure{
		Title: "Figure 6a: CIFAR-10 Loss/Accuracy (IID, 4 vs 8 parties)", XLabel: "Round",
		X: x, Series: series,
	}
	latency := &Figure{
		Title: "Figure 6b: CIFAR-10 Cumulative Latency (s)", XLabel: "Round",
		X: x, Series: latSeries, Notes: notes,
	}
	return lossAcc, latency, nil
}

// Fig7 reproduces Figure 7: RVL-CDIP document classification with a
// pre-trained VGG-16 whose final three fully connected layers are replaced
// and trained (transfer learning), eight parties, non-IID 90-10 skew.
// "Pre-training" is simulated by a fixed-seed initialization of the frozen
// convolutional stack — the experiment measures convergence and latency of
// the transfer head under FL, which the substitution preserves.
func Fig7(sc Scale) (*Figure, *Figure, error) {
	spec := dataset.RVLCDIP
	build := func() *nn.Network {
		net, head := nn.VGG16Lite(1, spec.H, spec.W, spec.Classes)
		net.FreezePrefix(head)
		return net
	}
	train, test := dataset.TrainTest(spec, 8*sc.SamplesPerParty, sc.TestSamples, []byte("fig7-data"))
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: sc.RVLRounds, LocalEpochs: 1,
		BatchSize: sc.BatchSize, LR: sc.LR, Momentum: sc.Momentum, Seed: []byte("fig7-cfg"),
	}
	skewSplit := func(d *dataset.Dataset, parties int, seed []byte) []*dataset.Dataset {
		return dataset.SplitSkew(d, parties, 2, 0.9, seed)
	}
	pair, err := runPair(cfg, build, train, test, 8,
		func() agg.Algorithm { return agg.IterativeAverage{} }, sc.Aggregators,
		[]byte("fig7-split"), skewSplit, false)
	if err != nil {
		return nil, nil, err
	}
	la, lat := pair.figures("Figure 7: RVL-CDIP VGG-16 transfer (non-IID 90-10, 8 parties)")
	la.Notes = append(la.Notes, "frozen VGG-16-lite convolutional stack simulates the paper's ImageNet pre-training")
	return la, lat, nil
}
