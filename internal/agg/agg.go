// Package agg implements the model-aggregation algorithms the paper
// evaluates (§3.1, §7.1): iterative (weighted) averaging — the core of
// FedAvg and FedSGD — coordinate median and trimmed mean (Byzantine-robust),
// Krum/Multi-Krum, a FLAME-style clustering defense, and Paillier-based
// fusion over additively homomorphic ciphertexts.
//
// Every algorithm here is coordinate-wise (or distance-based, which
// permutations preserve), which is precisely the structural property DeTA
// exploits: aggregating partitioned, shuffled fragments per aggregator and
// merging at the parties yields the same result as centralized aggregation.
package agg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"deta/internal/parallel"
	"deta/internal/tensor"
)

// Algorithm combines one model update per party into an aggregated update.
// weights are per-party importance values (typically local dataset sizes);
// algorithms that ignore weights document so.
type Algorithm interface {
	Name() string
	Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error)
}

// ErrNoUpdates is returned when Aggregate receives no updates.
var ErrNoUpdates = errors.New("agg: no updates to aggregate")

func validate(updates []tensor.Vector, weights []float64) (int, error) {
	if len(updates) == 0 {
		return 0, ErrNoUpdates
	}
	if weights != nil && len(weights) != len(updates) {
		return 0, fmt.Errorf("agg: %d updates but %d weights", len(updates), len(weights))
	}
	n := len(updates[0])
	for i, u := range updates {
		if len(u) != n {
			return 0, fmt.Errorf("agg: update %d has length %d, want %d", i, len(u), n)
		}
	}
	return n, nil
}

func normWeights(k int, weights []float64) ([]float64, error) {
	if weights == nil {
		w := make([]float64, k)
		for i := range w {
			w[i] = 1 / float64(k)
		}
		return w, nil
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("agg: negative weight %v", w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, errors.New("agg: weights sum to zero")
	}
	out := make([]float64, k)
	for i, w := range weights {
		out[i] = w / sum
	}
	return out, nil
}

// IterativeAverage is the weighted-mean aggregation at the core of FedAvg
// and FedSGD: theta <- sum_i (n_i/n) theta_i.
type IterativeAverage struct{}

// Name implements Algorithm.
func (IterativeAverage) Name() string { return "iterative-averaging" }

// Aggregate implements Algorithm.
func (IterativeAverage) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	if _, err := validate(updates, weights); err != nil {
		return nil, err
	}
	w, err := normWeights(len(updates), weights)
	if err != nil {
		return nil, err
	}
	return tensor.WeightedSum(updates, w)
}

// CoordinateMedian selects the per-coordinate median across parties,
// tolerating Byzantine parties (Yin et al.). Weights are ignored.
type CoordinateMedian struct{}

// Name implements Algorithm.
func (CoordinateMedian) Name() string { return "coordinate-median" }

// Aggregate implements Algorithm.
func (CoordinateMedian) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	n, err := validate(updates, weights)
	if err != nil {
		return nil, err
	}
	return orderStat{median: true}.aggregate(updates, n), nil
}

// median computes the median of xs, mutating xs's order.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// TrimmedMean removes the Trim largest and Trim smallest values per
// coordinate and averages the rest. Weights are ignored.
type TrimmedMean struct {
	Trim int
}

// Name implements Algorithm.
func (t TrimmedMean) Name() string { return fmt.Sprintf("trimmed-mean-%d", t.Trim) }

// Aggregate implements Algorithm.
func (t TrimmedMean) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	n, err := validate(updates, weights)
	if err != nil {
		return nil, err
	}
	if t.Trim < 0 || 2*t.Trim >= len(updates) {
		return nil, fmt.Errorf("agg: trim %d invalid for %d parties", t.Trim, len(updates))
	}
	return orderStat{trim: t.Trim}.aggregate(updates, n), nil
}

// Krum selects the single update whose summed squared distance to its
// n-f-2 nearest neighbours is smallest (Blanchard et al.), tolerating up
// to F Byzantine parties. Weights are ignored. Distances are preserved
// under permutation, so Krum composes with DeTA's shuffling; with
// partitioning enabled each aggregator runs Krum independently on its
// fragment (see the paper's FLAME discussion in §4.2).
type Krum struct {
	F int
}

// Name implements Algorithm.
func (k Krum) Name() string { return fmt.Sprintf("krum-f%d", k.F) }

// Aggregate implements Algorithm.
func (k Krum) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	idx, err := k.Select(updates)
	if err != nil {
		return nil, err
	}
	return updates[idx].Clone(), nil
}

// Select returns the index of the Krum-chosen update.
func (k Krum) Select(updates []tensor.Vector) (int, error) {
	if _, err := validate(updates, nil); err != nil {
		return 0, err
	}
	n := len(updates)
	if k.F < 0 || n-k.F-2 < 1 {
		return 0, fmt.Errorf("agg: krum needs n-f-2 >= 1, have n=%d f=%d", n, k.F)
	}
	// Pairwise squared distances. Rows are independent: the worker for row
	// i owns every (i,j) pair with j > i, and each matrix cell is written by
	// exactly one worker, so the fill is race-free and bit-identical.
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	parallel.For(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				var s float64
				for t := range updates[i] {
					diff := updates[i][t] - updates[j][t]
					s += diff * diff
				}
				d2[i][j], d2[j][i] = s, s
			}
		}
	})
	best, bestScore := 0, 0.0
	for i := 0; i < n; i++ {
		ds := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				// A distance is a sum of squares: >= 0, +Inf or NaN. A NaN
				// would sort first, count as the nearest neighbour and make
				// every score NaN, which pins the choice to update 0; rank it
				// as the farthest there is, like +Inf.
				d := d2[i][j]
				if math.IsNaN(d) {
					d = math.Inf(1)
				}
				ds = append(ds, d)
			}
		}
		sort.Float64s(ds)
		var score float64
		for _, v := range ds[:n-k.F-2] {
			score += v
		}
		if i == 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best, nil
}

// MultiKrum averages the M best updates under the Krum score. Weights are
// ignored (like Krum, CoordinateMedian, and TrimmedMean): the chosen
// updates are averaged equally, since Byzantine parties could inflate their
// own weights.
type MultiKrum struct {
	F int
	M int
}

// Name implements Algorithm.
func (m MultiKrum) Name() string { return fmt.Sprintf("multi-krum-f%d-m%d", m.F, m.M) }

// Aggregate implements Algorithm.
func (m MultiKrum) Aggregate(updates []tensor.Vector, weights []float64) (tensor.Vector, error) {
	if _, err := validate(updates, nil); err != nil {
		return nil, err
	}
	if m.M < 1 || m.M > len(updates) {
		return nil, fmt.Errorf("agg: multi-krum m=%d invalid for %d parties", m.M, len(updates))
	}
	remaining := make([]tensor.Vector, len(updates))
	copy(remaining, updates)
	var chosen []tensor.Vector
	for len(chosen) < m.M {
		if len(remaining)-m.F-2 < 1 {
			break // not enough parties left to score robustly; use what we have
		}
		idx, err := (Krum{F: m.F}).Select(remaining)
		if err != nil {
			return nil, err
		}
		chosen = append(chosen, remaining[idx])
		remaining = append(remaining[:idx], remaining[idx+1:]...)
	}
	if len(chosen) == 0 {
		chosen = updates
	}
	return IterativeAverage{}.Aggregate(chosen, nil)
}
