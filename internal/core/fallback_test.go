package core

import (
	"context"
	"testing"

	"deta/internal/agg"
)

// The paper's §4.2 fallback: algorithms that need global model access
// (e.g. FLTrust) can run DeTA with a single aggregator in a CVM and
// partitioning/shuffling disabled — trading the defense-in-depth layers
// for algorithm compatibility while keeping CC protection and two-phase
// authentication.
func TestSingleAggregatorFallbackMode(t *testing.T) {
	s := newTinySession(t, 2, false)
	s.Opts = Options{NumAggregators: 1, Shuffle: false, MapperSeed: []byte("fallback")}
	hist, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != s.Cfg.Rounds {
		t.Fatalf("rounds = %d", len(hist.Rounds))
	}
	// A single partition must carry the whole model.
	if got := s.Mapper.NumAggregators(); got != 1 {
		t.Fatalf("aggregators = %d", got)
	}
	if counts := s.Mapper.Counts(); counts[0] != s.Mapper.NumParams() {
		t.Fatalf("single partition holds %d of %d params", counts[0], s.Mapper.NumParams())
	}
	// The two-phase authentication still ran: the node has a token (it
	// signed Phase II challenges during Setup) and parties registered.
	if s.Nodes[0].NumParties() != 2 {
		t.Fatalf("parties registered = %d", s.Nodes[0].NumParties())
	}
}

// Unequal proportions (the paper lets parties choose the per-aggregator
// share) must flow through the whole session.
func TestUnequalProportionsSession(t *testing.T) {
	s := newTinySession(t, 2, true)
	s.Opts.Proportions = []float64{0.7, 0.2, 0.1}
	hist, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != s.Cfg.Rounds {
		t.Fatalf("rounds = %d", len(hist.Rounds))
	}
	counts := s.Mapper.Counts()
	n := s.Mapper.NumParams()
	if counts[0] < counts[1] || counts[1] < counts[2] {
		t.Fatalf("counts %v do not follow proportions", counts)
	}
	if counts[0]+counts[1]+counts[2] != n {
		t.Fatalf("counts %v do not cover %d", counts, n)
	}
}

// Krum as the per-aggregator algorithm: each aggregator independently
// selects a fragment; the session must still run (the paper notes
// Byzantine-robust algorithms compose, with per-partition selection).
func TestKrumSession(t *testing.T) {
	s := newTinySession(t, 4, true)
	s.NewAlgorithm = func() agg.Algorithm { return agg.Krum{F: 1} }
	hist, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != s.Cfg.Rounds {
		t.Fatalf("rounds = %d", len(hist.Rounds))
	}
}
