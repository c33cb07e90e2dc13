package core

import (
	"context"
	"testing"
)

// Session-level dropout: with quorum 1 of 2, one party missing every odd
// round must not stall training.
func TestSessionWithFlakyParty(t *testing.T) {
	s := newTinySession(t, 2, true)
	s.Opts.Quorum = 1
	s.Availability = func(partyID string, round int) bool {
		return partyID != "B" || round%2 == 0
	}
	hist, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != s.Cfg.Rounds {
		t.Fatalf("rounds = %d", len(hist.Rounds))
	}
}

// All parties absent in a round is an error, not a hang.
func TestSessionAllPartiesAbsent(t *testing.T) {
	s := newTinySession(t, 2, true)
	s.Opts.Quorum = 1
	s.Availability = func(string, int) bool { return false }
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("round with zero parties accepted")
	}
}
