package core

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"deta/internal/agg"
	"deta/internal/dataset"
	"deta/internal/fl"
	"deta/internal/nn"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Options configures a DeTA deployment.
type Options struct {
	// NumAggregators is K, the decentralization factor (the paper deploys
	// three).
	NumAggregators int
	// Proportions[j] is the fraction of parameters mapped to aggregator j;
	// nil means equal split.
	Proportions []float64
	// Shuffle enables dynamic parameter-level shuffling (on in a full DeTA
	// deployment; the security analysis also evaluates partition-only).
	Shuffle bool
	// MapperSeed seeds the shared model mapper; all parties must agree.
	MapperSeed []byte
	// Quorum, when positive, lets each aggregator fuse a round once that
	// many parties have uploaded, tolerating stragglers and dropouts
	// (paper §8.2 contrasts this flexibility with SMC cohort formation).
	Quorum int
	// AggQuorum, when positive, is the minimum number of *aggregators* a
	// party's fan-out must reach for a round to proceed; a dead or stalled
	// aggregator beyond the quorum degrades the round (missing fragments
	// fall back to the party's own update) instead of hanging it. 0
	// requires all K. A Session's fleet applies it as Fleet.Quorum, like
	// deta-party's -agg-quorum. No caller sets it yet; it stays because the
	// in-process fault tests of the fuse manifest (ROADMAP item 1) drive
	// the aggregator quorum through it.
	AggQuorum int
}

func (o *Options) defaults() {
	if o.NumAggregators == 0 {
		o.NumAggregators = 3
	}
	if o.Proportions == nil {
		o.Proportions = EqualProportions(o.NumAggregators)
	}
	if o.MapperSeed == nil {
		o.MapperSeed = []byte("deta-default-mapper-seed")
	}
}

// Session is a whole DeTA deployment in one process: an AP service,
// SEV-protected aggregator nodes, and the parties. It is a driver, not a
// second implementation: the AP is served by ServeAP and every node by
// ServeAggregator on in-memory listeners, aggregators boot through
// BootAggregatorCVM, and the parties enrol and run rounds through one
// Fleet and RoundStep, the path deta-party runs. It mirrors fl.Session so
// experiments can compare the two directly.
type Session struct {
	Cfg      fl.Config
	Opts     Options
	Build    func() *nn.Network
	Parties  []*fl.Party
	Test     *dataset.Dataset
	InitSeed []byte
	// NewAlgorithm constructs one algorithm instance per aggregator (some
	// algorithms, like Paillier fusion, carry per-instance state).
	NewAlgorithm func() agg.Algorithm

	// Populated by Setup.
	Nodes    []*AggregatorNode
	Mapper   *Mapper
	Shuffler *Shuffler

	// Clock is the session's time source (nil = SystemClock). It is
	// injected into every aggregator node and used for the session's own
	// latency accounting, so deadline behavior and timing metrics are
	// testable under a FakeClock without sleeping.
	Clock Clock

	// Availability, when non-nil, reports whether a party participates in
	// a round; absent parties neither train nor upload that round (they
	// still receive the aggregated model). Requires Opts.Quorum low
	// enough for the remaining parties to complete rounds.
	Availability func(partyID string, round int) bool

	// SetupLatency records the one-time trust-bootstrap cost (Phase I +
	// Phase II + registration), reported separately from training latency.
	SetupLatency time.Duration

	// FinalParams holds the global model parameters after Run completes.
	FinalParams tensor.Vector

	// The deployed path, built by Setup and torn down by Close.
	ap    *APClient
	stop  []func() // the AP's and every aggregator server's
	fleet *Fleet
	step  *RoundStep
}

// Setup performs the full trust bootstrap of Figure 1 steps 1-4 against an
// in-process AP:
//
//  1. launch one SEV CVM per aggregator, attest each via the AP and put it
//     behind its own RPC server,
//  2. provision authentication tokens into the CVMs,
//  3. have every party verify every aggregator (challenge-response) and
//     register,
//  4. distribute the permutation key and build the shared model mapper.
//
// ctx bounds every RPC. A Session that was set up but not Run must be
// Closed.
func (s *Session) Setup(ctx context.Context) (err error) {
	start := orSystem(s.Clock).Now()
	s.Opts.defaults()
	if err := s.Cfg.Validate(); err != nil {
		return err
	}
	if len(s.Parties) == 0 {
		return errors.New("core: no parties")
	}
	if s.NewAlgorithm == nil {
		return errors.New("core: NewAlgorithm is required")
	}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	_, ap, stopAP, err := ServeAP()
	if err != nil {
		return err
	}
	s.ap, s.stop = ap, append(s.stop, stopAP)

	// Phase I: boot and serve every aggregator.
	s.Nodes = make([]*AggregatorNode, s.Opts.NumAggregators)
	clients := make([]*AggregatorClient, s.Opts.NumAggregators)
	for j := 0; j < s.Opts.NumAggregators; j++ {
		id := fmt.Sprintf("agg-%d", j+1)
		cvm, err := BootAggregatorCVM(ctx, ap, id)
		if err != nil {
			return err
		}
		node, err := NewAggregatorNode(id, s.NewAlgorithm(), cvm)
		if err != nil {
			return err
		}
		// A session keeps only the round just fused: Run is done with a
		// round once it has downloaded it.
		node.SetRetention(1)
		if s.Clock != nil {
			node.SetClock(s.Clock)
		}
		if s.Opts.Quorum > 0 {
			node.SetQuorum(s.Opts.Quorum)
		}
		s.Nodes[j] = node

		srv := transport.NewServer()
		ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(ln)
		s.stop = append(s.stop, srv.Close)
		// No connection yet: the first call dials, like a redial after a
		// restart.
		clients[j] = &AggregatorClient{ID: id, Redial: func(context.Context) (net.Conn, error) { return ln.Dial() }}
	}
	s.fleet = &Fleet{Clients: clients, Quorum: s.Opts.AggQuorum, Clock: s.Clock}

	// Shared model mapper, agreed by all parties before training.
	model := s.Build()
	s.Mapper, err = NewMapper(model.NumParams(), s.Opts.Proportions, s.Opts.MapperSeed)
	if err != nil {
		return err
	}
	s.step = &RoundStep{Fleet: s.fleet, Mapper: s.Mapper, Shuffle: s.Opts.Shuffle}

	// Phase II, registration and the permutation key, party by party.
	for _, p := range s.Parties {
		if err := s.step.Join(ctx, ap, p.ID); err != nil {
			return fmt.Errorf("core: party %s: %w", p.ID, err)
		}
	}
	s.Shuffler = s.step.Shuffler
	s.SetupLatency = orSystem(s.Clock).Now().Sub(start)
	return nil
}

// Close stops the AP and the aggregator servers, and with them every
// connection and goroutine Setup started. Run calls it; idempotent.
func (s *Session) Close() {
	for _, stop := range s.stop {
		stop()
	}
	s.stop = nil
}

// Run executes training with the DeTA life cycle and returns the history.
// Setup is invoked automatically, with ctx, if it has not been run; ctx
// bounds every RPC the rounds make.
func (s *Session) Run(ctx context.Context) (*fl.History, error) {
	if s.Nodes == nil {
		if err := s.Setup(ctx); err != nil {
			return nil, err
		}
	}
	defer s.Close()
	net := s.Build()
	net.Init(s.InitSeed)
	global := net.Params()

	hist := &fl.History{System: "DETA"}
	var cum time.Duration
	for round := 1; round <= s.Cfg.Rounds; round++ {
		start := orSystem(s.Clock).Now()
		roundID, err := s.ap.RoundID(ctx, round)
		if err != nil {
			return nil, err
		}
		// Initiator notifies parties to start local training; each party
		// transforms its update and uploads fragments to all aggregators.
		// All parties end the round on the same model, so one of them —
		// the first to take part — downloads it for the session.
		var trainLoss float64
		participants := 0
		var finisher string
		var own []tensor.Vector
		for _, p := range s.Parties {
			if s.Availability != nil && !s.Availability(p.ID, round) {
				continue // dropped out this round
			}
			participants++
			update, loss, err := p.LocalUpdate(global, round)
			if err != nil {
				return nil, err
			}
			trainLoss += loss
			frags, err := s.step.Upload(ctx, round, p.ID, roundID, update, float64(p.NumExamples()))
			if err != nil {
				return nil, err
			}
			if own == nil {
				finisher, own = p.ID, frags
			} else {
				putFragments(frags)
			}
		}
		if participants == 0 {
			return nil, fmt.Errorf("core: round %d has no available parties", round)
		}
		trainLoss /= float64(participants)

		// The session stands in for the initiator: every upload is in, so
		// it tells all K aggregators to fuse at once rather than have an
		// Initiator discover that by polling — a poll interval per round
		// would be charged to every experiment's latency.
		if _, _, err := s.fleet.fanOut(func(_ int, a *AggregatorClient) error {
			cctx, cancel := s.fleet.callCtx(ctx)
			defer cancel()
			return a.Aggregate(cctx, round)
		}); err != nil {
			return nil, err
		}

		fused, err := s.step.Finish(ctx, round, finisher, roundID, own)
		if err != nil {
			return nil, err
		}
		global = s.applyUpdate(global, fused)
		cum += orSystem(s.Clock).Now().Sub(start)

		m := fl.RoundMetrics{Round: round, TrainLoss: trainLoss, Cumulative: cum}
		if s.Test != nil {
			m.TestLoss, m.Accuracy, err = fl.Evaluate(s.Build, global, s.Test)
			if err != nil {
				return nil, err
			}
		}
		hist.Rounds = append(hist.Rounds, m)
	}
	s.FinalParams = global
	return hist, nil
}

func (s *Session) applyUpdate(global, fused tensor.Vector) tensor.Vector {
	if s.Cfg.Mode == fl.FedSGD {
		out := global.Clone()
		if err := tensor.AXPY(-s.Cfg.LR, out, fused); err != nil {
			panic(err) // lengths validated by the mapper
		}
		return out
	}
	return fused
}
