package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"deta/internal/agg"
	"deta/internal/core"
	"deta/internal/rng"
	"deta/internal/tensor"
)

// ChurnSweep exercises the round lifecycle manager under party churn: for
// each (parties, dropout-rate) cell it drives an aggregator with a round
// deadline and majority quorum on a fake clock, drops each party's upload
// independently per round, and counts how rounds end — fused with full
// participation, fused degraded (quorum but not everyone), or abandoned
// below quorum at the deadline. It quantifies the paper's §8.2 straggler
// argument: liveness-bounded rounds trade completeness for progress
// instead of stalling the federation.
func ChurnSweep(sc Scale) (*Table, error) {
	rounds := sc.MNISTRounds
	if rounds <= 0 {
		rounds = 10
	}
	partyGrid := []int{4, 8}
	dropGrid := []float64{0, 0.25, 0.5}

	t := &Table{
		Title:  fmt.Sprintf("Round lifecycle under churn (majority quorum, %d rounds, per-round i.i.d. dropout)", rounds),
		Header: []string{"Parties", "Dropout", "Rounds", "FusedFull", "FusedDegraded", "Abandoned"},
	}
	for _, parties := range partyGrid {
		for _, drop := range dropGrid {
			full, degraded, abandoned, err := churnCell(parties, drop, rounds)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(parties),
				fmt.Sprintf("%.2f", drop),
				fmt.Sprint(rounds),
				fmt.Sprint(full),
				fmt.Sprint(degraded),
				fmt.Sprint(abandoned),
			})
		}
	}
	t.Notes = append(t.Notes,
		"abandoned rounds fail typed (ErrRoundAbandoned); parties skip them instead of blocking",
		"degraded rounds fuse the quorum at deadline and cut stragglers after the grace window",
	)
	return t, nil
}

// churnCell runs one grid cell on a single lifecycle-enabled aggregator.
// All timing is fake-clock-driven, so the sweep is deterministic and runs
// in microseconds per round regardless of the configured deadline.
func churnCell(parties int, dropout float64, rounds int) (full, degraded, abandoned int, err error) {
	_, ap, stop, err := core.ServeAP()
	if err != nil {
		return 0, 0, 0, err
	}
	defer stop()
	cvm, err := core.BootAggregatorCVM(context.Background(), ap, "agg-churn")
	if err != nil {
		return 0, 0, 0, err
	}
	node, err := core.NewAggregatorNode("agg-churn", agg.IterativeAverage{}, cvm)
	if err != nil {
		return 0, 0, 0, err
	}
	clk := core.NewFakeClock(time.Unix(1_000_000, 0))
	node.SetClock(clk)
	const deadline = 30 * time.Second
	node.SetLifecycle(deadline, 2*time.Second)
	for i := 0; i < parties; i++ {
		node.Register(fmt.Sprintf("P%d", i+1))
	}
	node.SetQuorum(parties/2 + 1)
	node.SetRetention(1)

	st := rng.NewStream([]byte("churn-sweep"), fmt.Sprintf("p%d-d%.2f", parties, dropout))
	for round := 1; round <= rounds; round++ {
		uploaded := 0
		for i := 0; i < parties; i++ {
			if st.Float64() < dropout {
				continue // this party misses the round
			}
			if err := node.Upload(round, fmt.Sprintf("P%d", i+1), tensor.Vector{float64(round)}, 1); err != nil {
				return 0, 0, 0, fmt.Errorf("experiments: churn upload: %w", err)
			}
			uploaded++
		}
		clk.Advance(deadline) // the round hits its deadline
		switch err := node.Aggregate(round); {
		case errors.Is(err, core.ErrRoundAbandoned):
			abandoned++
		case err != nil:
			return 0, 0, 0, fmt.Errorf("experiments: churn round %d at deadline: %w", round, err)
		case uploaded == parties:
			full++
		default:
			degraded++
		}
	}
	return full, degraded, abandoned, nil
}
