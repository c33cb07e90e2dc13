package attack

import (
	"fmt"
	"math"

	"deta/internal/core"
	"deta/internal/tensor"
)

// Scenario describes what a breached aggregator holds, mirroring the two
// evaluation configurations of §6: a partition factor (the fraction of each
// model update this aggregator receives) with shuffling off or on.
type Scenario struct {
	Name            string
	PartitionFactor float64 // in (0, 1]; 1.0 = "Full"
	Shuffle         bool
}

// Standard scenarios of Tables 1-3.
var (
	ScenarioFull        = Scenario{Name: "Full", PartitionFactor: 1.0}
	ScenarioP06         = Scenario{Name: "0.6", PartitionFactor: 0.6}
	ScenarioP02         = Scenario{Name: "0.2", PartitionFactor: 0.2}
	ScenarioFullShuffle = Scenario{Name: "Full+Shuffle", PartitionFactor: 1.0, Shuffle: true}
	ScenarioP06Shuffle  = Scenario{Name: "0.6+Shuffle", PartitionFactor: 0.6, Shuffle: true}
	ScenarioP02Shuffle  = Scenario{Name: "0.2+Shuffle", PartitionFactor: 0.2, Shuffle: true}
)

// TableScenarios is the six-column grid of Tables 1-3: partition-only at
// {Full, 0.6, 0.2}, then partition+shuffle at the same factors.
var TableScenarios = []Scenario{
	ScenarioFull, ScenarioP06, ScenarioP02,
	ScenarioFullShuffle, ScenarioP06Shuffle, ScenarioP02Shuffle,
}

// Observation is the evidence the adversary extracted from the breached
// aggregator: an anonymous flat fragment of the victim's gradient. The
// aggregator (and hence the adversary) does not know the model mapper or
// the permutation key, so the fragment's coordinates cannot be aligned to
// model positions — the adversary's best move is the naive alignment the
// attacks below use.
type Observation struct {
	Scenario Scenario
	Observed tensor.Vector

	// KnownIndices models a stronger, adaptive adversary who has also
	// obtained the model mapper (e.g. by compromising a party's
	// configuration): KnownIndices[i] is the original parameter index of
	// Observed[i]. With it, a partition-only fragment aligns perfectly;
	// a shuffled fragment still does not (the permutation key remains in
	// the broker), demonstrating the defense-in-depth layering.
	KnownIndices []int
}

// Observe applies a scenario's DeTA transformation to the victim's
// gradient, producing what the breached aggregator holds. seed
// deterministically derives the mapper and the permutation key; roundID is
// the training identifier of the observed round.
func Observe(grad tensor.Vector, sc Scenario, seed, roundID []byte) (*Observation, error) {
	obs, _, err := observe(grad, sc, seed, roundID)
	return obs, err
}

// ObserveWithMapper is Observe for the adaptive adversary of
// DESIGN.md §6 who also stole the model mapper: the returned observation
// carries the fragment's original index list.
func ObserveWithMapper(grad tensor.Vector, sc Scenario, seed, roundID []byte) (*Observation, error) {
	obs, indices, err := observe(grad, sc, seed, roundID)
	if err != nil {
		return nil, err
	}
	obs.KnownIndices = indices
	return obs, nil
}

func observe(grad tensor.Vector, sc Scenario, seed, roundID []byte) (*Observation, []int, error) {
	if sc.PartitionFactor <= 0 || sc.PartitionFactor > 1 {
		return nil, nil, fmt.Errorf("attack: partition factor %v out of (0,1]", sc.PartitionFactor)
	}
	frag := grad.Clone()
	indices := make([]int, len(grad))
	for i := range indices {
		indices[i] = i
	}
	if sc.PartitionFactor < 1 {
		// The breached aggregator is one of several; it holds the
		// partition with the scenario's share of parameters.
		props := []float64{sc.PartitionFactor, 1 - sc.PartitionFactor}
		m, err := core.NewMapper(len(grad), props, seed)
		if err != nil {
			return nil, nil, err
		}
		frags, err := m.Partition(grad)
		if err != nil {
			return nil, nil, err
		}
		frag = frags[0]
		indices, err = m.PartitionIndices(0)
		if err != nil {
			return nil, nil, err
		}
	}
	if sc.Shuffle {
		sh, err := core.NewShuffler(append([]byte("attack-perm-key/"), seed...))
		if err != nil {
			return nil, nil, err
		}
		if frag, err = sh.Shuffle(frag, roundID, 0); err != nil {
			return nil, nil, err
		}
		// The mapper does not reveal the permutation: the index list
		// still describes the *unshuffled* fragment order, so a
		// known-mapper adversary aligns shuffled values to the wrong
		// indices — exactly the residual protection shuffling provides.
	}
	return &Observation{Scenario: sc, Observed: frag}, indices, nil
}

// AlignedDiff computes the adversary's naive residual v = g_dummy[:m] - obs
// zero-padded to full parameter length, together with the squared residual
// (the DLG cost). Without the mapper, the adversary aligns the anonymous
// fragment against the leading coordinates of its dummy gradient; when the
// observation is in fact partitioned or shuffled, this alignment is wrong,
// which is exactly why the attacks fail (§6).
func (o *Observation) AlignedDiff(dummyGrad tensor.Vector) (v tensor.Vector, cost float64) {
	v = make(tensor.Vector, len(dummyGrad))
	if o.KnownIndices != nil {
		// Adaptive adversary: align each observed value to its true
		// original index (correct for partition-only observations; still
		// wrong under shuffling, whose permutation the mapper does not
		// reveal).
		for i, idx := range o.KnownIndices {
			if i >= len(o.Observed) || idx >= len(dummyGrad) {
				break
			}
			d := dummyGrad[idx] - o.Observed[i]
			v[idx] = d
			cost += d * d
		}
		return v, cost
	}
	m := len(o.Observed)
	if m > len(dummyGrad) {
		m = len(dummyGrad)
	}
	for i := 0; i < m; i++ {
		d := dummyGrad[i] - o.Observed[i]
		v[i] = d
		cost += d * d
	}
	return v, cost
}

// CosineAlignment returns the cosine distance between the adversary's
// aligned dummy gradient slice and the observation (the IG cost term), plus
// the direction vector for its gradient (see IG).
func (o *Observation) CosineAlignment(dummyGrad tensor.Vector) (w tensor.Vector, dist float64) {
	m := len(o.Observed)
	if m > len(dummyGrad) {
		m = len(dummyGrad)
	}
	// position i of the observation aligns to original index align(i).
	align := func(i int) int { return i }
	if o.KnownIndices != nil {
		align = func(i int) int { return o.KnownIndices[i] }
		if m > len(o.KnownIndices) {
			m = len(o.KnownIndices)
		}
	}
	var dot, gg, oo float64
	for i := 0; i < m; i++ {
		gi := dummyGrad[align(i)]
		dot += gi * o.Observed[i]
		gg += gi * gi
		oo += o.Observed[i] * o.Observed[i]
	}
	if gg == 0 || oo == 0 {
		return make(tensor.Vector, len(dummyGrad)), 1
	}
	a := math.Sqrt(gg)
	b := math.Sqrt(oo)
	dist = 1 - dot/(a*b)
	// d(dist)/dg = -obs/(a*b) + dot*g/(a^3*b), zero elsewhere.
	w = make(tensor.Vector, len(dummyGrad))
	for i := 0; i < m; i++ {
		idx := align(i)
		w[idx] = -o.Observed[i]/(a*b) + dot*dummyGrad[idx]/(a*a*a*b)
	}
	return w, dist
}
