package core

import (
	"errors"
	"math"
	"testing"

	"deta/internal/tensor"
)

func quorumNode(t *testing.T) *AggregatorNode {
	t.Helper()
	proxy, vendor := testTrust(t)
	return newProvisionedNode(t, proxy, vendor, "agg-q")
}

// Partial participation: with a quorum of 2 out of 3 registered parties,
// a round fuses without the straggler (the paper's §8.2 asynchrony
// argument against SMC-style cohort formation).
func TestQuorumAggregatesWithoutStraggler(t *testing.T) {
	node := quorumNode(t)
	for _, p := range []string{"P1", "P2", "P3-straggler"} {
		node.Register(p)
	}
	node.SetQuorum(2)

	if err := node.Upload(1, "P1", tensor.Vector{2}, 1); err != nil {
		t.Fatal(err)
	}
	if node.Complete(1) {
		t.Fatal("complete below quorum")
	}
	if err := node.Upload(1, "P2", tensor.Vector{4}, 1); err != nil {
		t.Fatal(err)
	}
	if !node.Complete(1) {
		t.Fatal("quorum reached but round not complete")
	}
	if err := node.Aggregate(1); err != nil {
		t.Fatal(err)
	}
	got, err := node.Download(1, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 1e-12 {
		t.Fatalf("quorum aggregate = %v, want 3", got)
	}
}

func TestQuorumResetToAllParties(t *testing.T) {
	node := quorumNode(t)
	node.Register("P1")
	node.Register("P2")
	node.SetQuorum(1)
	if err := node.Upload(1, "P1", tensor.Vector{1}, 1); err != nil {
		t.Fatal(err)
	}
	if !node.Complete(1) {
		t.Fatal("quorum of 1 not honored")
	}
	node.SetQuorum(0) // back to all-parties semantics
	if node.Complete(1) {
		t.Fatal("round complete with 1/2 uploads after quorum reset")
	}
	if err := node.Aggregate(1); !errors.Is(err, ErrRoundIncomplete) {
		t.Fatalf("err = %v", err)
	}
}

func TestQuorumLargerThanPartiesBehavesAsAll(t *testing.T) {
	node := quorumNode(t)
	node.Register("P1")
	node.SetQuorum(9)
	if err := node.Upload(1, "P1", tensor.Vector{1}, 1); err != nil {
		t.Fatal(err)
	}
	if !node.Complete(1) {
		t.Fatal("all parties uploaded; round should be complete regardless of oversize quorum")
	}
}
