package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
)

var tinySpec = dataset.Spec{Name: "core-tiny", C: 1, H: 12, W: 12, Classes: 4}

func tinyBuild() *nn.Network { return nn.ConvNet8(1, 12, 12, 4) }

func tinyConfig() fl.Config {
	return fl.Config{
		Mode: fl.FedAvg, Rounds: 3, LocalEpochs: 1, BatchSize: 8,
		LR: 0.05, Momentum: 0.9, Seed: []byte("core-cfg"),
	}
}

func tinyParties(t *testing.T, n int, cfg fl.Config) ([]*fl.Party, *dataset.Dataset) {
	t.Helper()
	train, test := dataset.TrainTest(tinySpec, 24*n, 24, []byte("core-data"))
	shards := dataset.SplitIID(train, n, []byte("core-split"))
	ps := make([]*fl.Party, n)
	for i := range ps {
		ps[i] = fl.NewParty(string(rune('A'+i)), tinyBuild, shards[i], cfg)
	}
	return ps, test
}

func newTinySession(t *testing.T, parties int, shuffle bool) *Session {
	t.Helper()
	cfg := tinyConfig()
	ps, test := tinyParties(t, parties, cfg)
	return &Session{
		Cfg:          cfg,
		Opts:         Options{NumAggregators: 3, Shuffle: shuffle, MapperSeed: []byte("core-map")},
		Build:        tinyBuild,
		Parties:      ps,
		Test:         test,
		InitSeed:     []byte("core-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
	}
}

func TestSetupBootstrapsTrust(t *testing.T) {
	s := newTinySession(t, 2, true)
	if err := s.Setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Nodes) != 3 {
		t.Fatalf("%d nodes", len(s.Nodes))
	}
	for _, n := range s.Nodes {
		if n.NumParties() != 2 {
			t.Fatalf("node %s has %d parties", n.ID, n.NumParties())
		}
	}
	if s.Mapper == nil || s.Shuffler == nil {
		t.Fatal("setup left nil components")
	}
	if s.SetupLatency <= 0 {
		t.Fatal("setup latency not recorded")
	}
	if err := s.Mapper.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupValidation(t *testing.T) {
	s := newTinySession(t, 2, true)
	s.Parties = nil
	if err := s.Setup(context.Background()); err == nil {
		t.Fatal("no-party session accepted")
	}
	s = newTinySession(t, 2, true)
	s.NewAlgorithm = nil
	if err := s.Setup(context.Background()); err == nil {
		t.Fatal("missing algorithm accepted")
	}
	s = newTinySession(t, 2, true)
	s.Cfg.Rounds = 0
	if err := s.Setup(context.Background()); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// The headline correctness claim: DeTA training (partition + shuffle +
// decentralized aggregation) produces *identical* models to the
// centralized FFL baseline, round for round — the paper's "no utility
// loss" (Figures 5-7 show identical loss/accuracy curves).
func TestDeTAMatchesCentralizedExactly(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 3

	psFFL, test := tinyParties(t, 4, cfg)
	ffl := &fl.Session{
		Cfg: cfg, Algorithm: agg.IterativeAverage{}, Build: tinyBuild,
		Parties: psFFL, Test: test, InitSeed: []byte("shared-init"),
	}
	histFFL, err := ffl.Run()
	if err != nil {
		t.Fatal(err)
	}

	psDeTA, test2 := tinyParties(t, 4, cfg)
	deta := &Session{
		Cfg:          cfg,
		Opts:         Options{NumAggregators: 3, Shuffle: true},
		Build:        tinyBuild,
		Parties:      psDeTA,
		Test:         test2,
		InitSeed:     []byte("shared-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
	}
	histDeTA, err := deta.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	for i := range histFFL.Rounds {
		a, b := histFFL.Rounds[i], histDeTA.Rounds[i]
		if math.Abs(a.TrainLoss-b.TrainLoss) > 1e-9 {
			t.Errorf("round %d train loss differs: FFL %v DeTA %v", i+1, a.TrainLoss, b.TrainLoss)
		}
		if math.Abs(a.TestLoss-b.TestLoss) > 1e-9 {
			t.Errorf("round %d test loss differs: FFL %v DeTA %v", i+1, a.TestLoss, b.TestLoss)
		}
		if a.Accuracy != b.Accuracy {
			t.Errorf("round %d accuracy differs: FFL %v DeTA %v", i+1, a.Accuracy, b.Accuracy)
		}
	}
}

// Same equivalence for the coordinate-median algorithm (also exactly
// coordinate-wise).
func TestDeTAMedianMatchesCentralized(t *testing.T) {
	cfg := tinyConfig()
	cfg.Rounds = 2

	psFFL, test := tinyParties(t, 4, cfg)
	ffl := &fl.Session{
		Cfg: cfg, Algorithm: agg.CoordinateMedian{}, Build: tinyBuild,
		Parties: psFFL, Test: test, InitSeed: []byte("shared-init"),
	}
	histFFL, err := ffl.Run()
	if err != nil {
		t.Fatal(err)
	}
	psDeTA, test2 := tinyParties(t, 4, cfg)
	deta := &Session{
		Cfg:          cfg,
		Opts:         Options{NumAggregators: 3, Shuffle: true},
		Build:        tinyBuild,
		Parties:      psDeTA,
		Test:         test2,
		InitSeed:     []byte("shared-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.CoordinateMedian{} },
	}
	histDeTA, err := deta.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range histFFL.Rounds {
		if math.Abs(histFFL.Rounds[i].TestLoss-histDeTA.Rounds[i].TestLoss) > 1e-9 {
			t.Errorf("round %d: median test loss differs", i+1)
		}
	}
}

func TestDeTAFedSGD(t *testing.T) {
	cfg := tinyConfig()
	cfg.Mode = fl.FedSGD
	cfg.Rounds = 5
	cfg.LR = 0.1
	ps, test := tinyParties(t, 2, cfg)
	s := &Session{
		Cfg: cfg, Opts: Options{NumAggregators: 2, Shuffle: true},
		Build: tinyBuild, Parties: ps, Test: test,
		InitSeed:     []byte("sgd-init"),
		NewAlgorithm: func() agg.Algorithm { return agg.IterativeAverage{} },
	}
	hist, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hist.Final().TrainLoss >= hist.Rounds[0].TrainLoss {
		t.Errorf("FedSGD loss did not decrease: %v -> %v",
			hist.Rounds[0].TrainLoss, hist.Final().TrainLoss)
	}
}

func TestAggregatorNodeProtocolErrors(t *testing.T) {
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-x")

	// Unregistered upload/download.
	if err := node.Upload(1, "ghost", tensor.Vector{1}, 1); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("upload: %v", err)
	}
	if _, err := node.Download(1, "ghost"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("download: %v", err)
	}

	node.Register("P1")
	node.Register("P2")
	if err := node.Aggregate(1); !errors.Is(err, ErrRoundIncomplete) {
		t.Fatalf("aggregate before any upload: %v", err)
	}
	if err := node.Upload(1, "P1", tensor.Vector{1, 2}, 1); err != nil {
		t.Fatal(err)
	}
	// Duplicate upload.
	if err := node.Upload(1, "P1", tensor.Vector{9, 9}, 1); !errors.Is(err, ErrDuplicateUpload) {
		t.Fatalf("dup upload: %v", err)
	}
	// Aggregate before complete.
	if err := node.Aggregate(1); !errors.Is(err, ErrRoundIncomplete) {
		t.Fatalf("early aggregate: %v", err)
	}
	// Download before aggregated.
	if _, err := node.Download(1, "P1"); !errors.Is(err, ErrNotAggregated) {
		t.Fatalf("early download: %v", err)
	}
	if err := node.Upload(1, "P2", tensor.Vector{3, 4}, 1); err != nil {
		t.Fatal(err)
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatalf("round should fuse: %v", err)
	}
	got, err := node.Download(1, "P2")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-2) > 1e-12 || math.Abs(got[1]-3) > 1e-12 {
		t.Fatalf("aggregated fragment %v", got)
	}
	// Leak API exposes uploads (used by the security analysis).
	leak := node.LeakRoundFragments(1)
	if len(leak) != 2 || leak["P1"][0] != 1 {
		t.Fatalf("leak = %v", leak)
	}
	if held := node.RoundsHeld(); held != 1 {
		t.Fatalf("node holds %d rounds, want 1", held)
	}
}

func TestNodeRequiresProvisionedCVM(t *testing.T) {
	vendor, _ := sev.NewVendor()
	platform, _ := sev.NewPlatform("h", vendor)
	cvm, _ := platform.LaunchCVM(OVMF)
	// No provisioning: still paused, no secret.
	if _, err := NewAggregatorNode("agg", agg.IterativeAverage{}, cvm); err == nil {
		t.Fatal("node started without provisioned token")
	}
}

// What a breached aggregator sees must not reveal the original update: with
// shuffling on, the fragment differs from the plain partition.
func TestBreachedAggregatorSeesShuffledFragment(t *testing.T) {
	s := newTinySession(t, 2, true)
	if err := s.Setup(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	update := make(tensor.Vector, s.Mapper.NumParams())
	st := rng.NewStream([]byte("upd"), "v")
	for i := range update {
		update[i] = st.NormFloat64()
	}
	roundID, _ := s.ap.RoundID(context.Background(), 1)
	plainFrags, _ := s.Mapper.Partition(update)
	wireFrags, _ := Transform(s.Mapper, s.Shuffler, update, roundID, true)
	diff := 0
	for i := range plainFrags[0] {
		if plainFrags[0][i] != wireFrags[0][i] {
			diff++
		}
	}
	if diff < len(plainFrags[0])/2 {
		t.Fatalf("wire fragment barely differs from plain partition: %d/%d", diff, len(plainFrags[0]))
	}
}

// All session timing flows through the injected Clock: with a fake clock
// auto-advancing a fixed step per reading, two identical runs report
// identical (and nonzero) latencies — no wall-clock jitter, no sleeps.
func TestSessionLatencyDeterministicUnderFakeClock(t *testing.T) {
	runOnce := func() (*Session, *fl.History) {
		s := newTinySession(t, 2, true)
		clk := NewFakeClock(time.Unix(1_000_000, 0))
		clk.SetAutoAdvance(time.Millisecond)
		s.Clock = clk
		hist, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return s, hist
	}
	s1, h1 := runOnce()
	s2, h2 := runOnce()
	if s1.SetupLatency <= 0 {
		t.Fatal("fake-clock setup latency not recorded")
	}
	if s1.SetupLatency != s2.SetupLatency {
		t.Fatalf("setup latency nondeterministic: %v vs %v", s1.SetupLatency, s2.SetupLatency)
	}
	last1 := h1.Rounds[len(h1.Rounds)-1].Cumulative
	last2 := h2.Rounds[len(h2.Rounds)-1].Cumulative
	if last1 <= 0 {
		t.Fatal("fake-clock cumulative latency not recorded")
	}
	if last1 != last2 {
		t.Fatalf("cumulative latency nondeterministic: %v vs %v", last1, last2)
	}
}

// A session node keeps only the round it fused last, so its memory stays
// flat across the run.
func TestSessionRetainsOneRound(t *testing.T) {
	s := newTinySession(t, 2, true)
	if _, err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Cfg.Rounds <= 1 {
		t.Fatalf("%d rounds cannot show retention 1", s.Cfg.Rounds)
	}
	for _, node := range s.Nodes {
		if held := node.RoundsHeld(); held != 1 {
			t.Fatalf("aggregator %s holds %d rounds, want 1", node.ID, held)
		}
	}
}

// Setup enrols the parties with the session's AP, the service the daemons
// run: it releases the permutation key to every party, the key the
// session shuffles with, and refuses an ID the session did not enrol.
func TestSetupEnrolsPartiesWithTheAP(t *testing.T) {
	s := newTinySession(t, 2, true)
	ctx := context.Background()
	if err := s.Setup(ctx); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, p := range s.Parties {
		key, err := s.ap.PermKey(ctx, p.ID)
		if err != nil {
			t.Fatalf("party %s: %v", p.ID, err)
		}
		if rng.Fingerprint(key) != s.Shuffler.Fingerprint() {
			t.Fatalf("party %s was issued another key than the session shuffles with", p.ID)
		}
	}
	if _, err := s.ap.PermKey(ctx, "ghost"); !errors.Is(err, attest.ErrUnregisteredParty) {
		t.Fatalf("unenrolled ID: %v, want ErrUnregisteredParty", err)
	}
}
