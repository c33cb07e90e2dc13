// Command deta-party runs one FL participant against a deployed DeTA
// fleet: it enrols (core.RoundStep.Join: it verifies every aggregator via
// the Phase II challenge-response, registers with the key broker and
// fetches the permutation key), and then trains for the configured
// number of rounds, uploading partitioned+shuffled fragments and merging
// the aggregated results. All per-aggregator RPCs fan out concurrently
// through a core.Fleet with per-call deadlines; -agg-quorum lets rounds
// degrade (missing partitions fall back to the local update) instead of
// hanging when an aggregator dies mid-training.
//
//	deta-party -id P1 -index 0 -parties 4 -ap 127.0.0.1:7000 \
//	    -aggregators agg-1=127.0.0.1:7101,agg-2=127.0.0.1:7102,agg-3=127.0.0.1:7103
//
// All parties must share -parties, -rounds, -dataset, and -mapper-seed so
// they derive identical mappers and data splits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"deta/internal/core"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/transport"
)

// clk is the process clock. The fleet's retry waits and the heartbeat loop
// go through this seam (core.SystemClock in production) so tests can
// substitute core.FakeClock and drive them deterministically.
var clk core.Clock = core.SystemClock

func main() {
	id := flag.String("id", "P1", "party identifier (must be unique)")
	index := flag.Int("index", 0, "this party's shard index in [0, parties)")
	parties := flag.Int("parties", 4, "total number of parties")
	apAddr := flag.String("ap", "127.0.0.1:7000", "attestation proxy / key broker address")
	aggSpec := flag.String("aggregators", "agg-1=127.0.0.1:7101", "comma-separated id=addr aggregator list")
	tlsDir := flag.String("tls-dir", "./deta-tls", "TLS materials directory (shared with the AP)")
	tlsName := flag.String("tls-name", "127.0.0.1", "expected TLS server name")
	rounds := flag.Int("rounds", 5, "training rounds")
	localEpochs := flag.Int("local-epochs", 1, "local epochs per round")
	samples := flag.Int("samples", 64, "training samples per party")
	batch := flag.Int("batch", 8, "batch size")
	lr := flag.Float64("lr", 0.05, "learning rate")
	dataSeed := flag.String("dataset-seed", "deta-cli-data", "shared dataset seed")
	mapperSeed := flag.String("mapper-seed", "deta-cli-mapper", "shared model-mapper seed")
	noShuffle := flag.Bool("no-shuffle", false, "disable parameter shuffling (partition only)")
	callTimeout := flag.Duration("call-timeout", 30*time.Second, "deadline for each aggregator RPC attempt (0 = none)")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "total budget for dialing the AP and each aggregator (with backoff)")
	roundTimeout := flag.Duration("round-timeout", 5*time.Minute, "deadline for each step, re-driven until it expires: Phase II, each round's upload, each round's download")
	aggQuorum := flag.Int("agg-quorum", 0, "minimum aggregators that must answer per round (0 = all); below K degrades, never hangs")
	heartbeat := flag.Duration("heartbeat", 0, "liveness heartbeat interval to every aggregator (match the fleet's -heartbeat; 0 = off)")
	flag.Parse()

	log.SetPrefix(fmt.Sprintf("deta-party[%s]: ", *id))
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	if *index < 0 || *index >= *parties {
		log.Fatalf("index %d out of range [0,%d)", *index, *parties)
	}

	mat, err := transport.LoadTLSMaterials(*tlsDir)
	if err != nil {
		log.Fatalf("loading TLS materials: %v", err)
	}
	dialCtx, cancelDial := context.WithTimeout(context.Background(), *dialTimeout)
	apConn, err := mat.DialTLSBackoff(dialCtx, *apAddr, *tlsName)
	if err != nil {
		cancelDial()
		log.Fatalf("dialing AP: %v", err)
	}
	ap := &core.APClient{C: apConn}

	// Dial every aggregator (with backoff — peers may still be starting),
	// in a stable order.
	clients, err := core.DialAggregators(dialCtx, mat, *aggSpec, *tlsName)
	cancelDial()
	if err != nil {
		log.Fatal(err)
	}
	fleet := &core.Fleet{Clients: clients, Quorum: *aggQuorum, Timeout: *callTimeout, Clock: clk}
	// Every step below is re-driven as a whole until -round-timeout.
	step := &core.RoundStep{Fleet: fleet, Shuffle: !*noShuffle, Deadline: *roundTimeout, Logf: log.Printf}

	// Enrolment: verify every aggregator's token in parallel (Phase II; a
	// failed *verification* aborts even under quorum), then register with
	// the key broker and fetch the permutation key.
	ctx := context.Background()
	if err := step.Join(ctx, ap, *id); err != nil {
		log.Fatalf("refusing to train: %v", err)
	}
	// Fingerprint, never the key: parties can compare fp lines across logs
	// to confirm the broker issued everyone the same key, without any log
	// ever containing key bytes (enforced by the keytaint analyzer).
	log.Printf("verified and registered with %d aggregators; permutation key received (fp %s)",
		fleet.K(), step.Shuffler.Fingerprint())

	if *heartbeat > 0 {
		// Background liveness heartbeats: training (and its long local-
		// compute stretches) must not read as death to the aggregators'
		// liveness tracker. A heartbeat also readmits this party anywhere
		// it was evicted while unreachable. The process context gives the
		// loop an escape edge (goleak): main never cancels it today, but
		// the goroutine must not be structurally unstoppable.
		go heartbeatLoop(ctx, fleet, *id, *heartbeat)
	}

	// Local data: shard index of a shared synthetic MNIST-like dataset.
	spec := dataset.MNIST
	train, _ := dataset.TrainTest(spec, *parties**samples, 1, []byte(*dataSeed))
	shard := dataset.SplitIID(train, *parties, []byte(*dataSeed+"/split"))[*index]
	log.Printf("local shard: %d examples", shard.Len())

	build := func() *nn.Network { return nn.ConvNet8(spec.C, spec.H, spec.W, spec.Classes) }
	cfg := fl.Config{
		Mode: fl.FedAvg, Rounds: *rounds, LocalEpochs: *localEpochs,
		BatchSize: *batch, LR: *lr, Momentum: 0.9, Seed: []byte(*dataSeed + "/cfg"),
	}
	party := fl.NewParty(*id, build, shard, cfg)

	// Shared mapper: equal proportions across the fleet.
	model := build()
	step.Mapper, err = core.NewMapper(model.NumParams(), core.EqualProportions(fleet.K()), []byte(*mapperSeed))
	if err != nil {
		log.Fatal(err)
	}

	// Initial model: shared seed.
	net := build()
	net.Init([]byte(*dataSeed + "/init"))
	global := net.Params()

	for round := 1; round <= *rounds; round++ {
		roundID, err := ap.RoundID(ctx, round)
		if err != nil {
			log.Fatalf("round %d: fetching round ID: %v", round, err)
		}
		update, loss, err := party.LocalUpdate(global, round)
		if err != nil {
			log.Fatalf("round %d: local training: %v", round, err)
		}
		// Upload the K fragments, then download the fused ones (the
		// initiator fuses once enough parties upload). A round the whole
		// fleet abandoned is skipped, leaving the global model unchanged.
		fused, err := step.Round(ctx, round, *id, roundID, update, float64(shard.Len()))
		if errors.Is(err, core.ErrRoundAbandoned) {
			log.Printf("round %d: abandoned by the fleet; skipping: %v", round, err)
			continue
		}
		if err != nil {
			log.Fatalf("round %d: %v", round, err)
		}
		global = fused
		log.Printf("round %d done: local train loss %.4f", round, loss)
	}
	log.Printf("training complete (%d rounds)", *rounds)
	for _, a := range clients {
		log.Printf("link %s: %s", a.ID, a.Stats())
	}
}

// heartbeatLoop keeps this party alive in every aggregator's liveness
// tracker while it trains. Best-effort fan-out: silence toward an
// unreachable aggregator is exactly what its tracker should observe.
func heartbeatLoop(ctx context.Context, fleet *core.Fleet, id string, interval time.Duration) {
	// Re-armed clk.After instead of a ticker: a heartbeat measured from
	// the previous beat's completion is fine (no catch-up semantics
	// wanted), and the clock seam keeps the loop drivable by FakeClock.
	for {
		select {
		case <-ctx.Done():
			return
		case <-clk.After(interval):
			acked, rejoinedAt := fleet.HeartbeatAll(ctx, id)
			if len(rejoinedAt) > 0 {
				log.Printf("heartbeat: rejoined at %v", rejoinedAt)
			}
			if acked == 0 {
				log.Printf("heartbeat: no aggregator reachable")
			}
		}
	}
}
