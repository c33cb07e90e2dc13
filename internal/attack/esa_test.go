package attack

import (
	"testing"

	"deta/internal/core"
	"deta/internal/tensor"
)

// The paper's §4.2 comparison: ESA-style shuffling permutes whole updates
// across parties (anonymity), so a breached aggregator still holds
// complete, in-order model updates — and reconstruction succeeds against
// every one of them. DeTA's parameter-level shuffling protects the
// content itself.
func TestESAShufflingDoesNotStopReconstruction(t *testing.T) {
	if testing.Short() {
		t.Skip("runs multiple reconstructions")
	}
	_, o := tinyModel(t)

	// Three victims' gradients.
	victims := make([][]float64, 3)
	grads := make([]tensor.Vector, 3)
	for i := range victims {
		victims[i] = tinyInput("esa-victim-"+string(rune('0'+i)), 16)
		g, err := o.VictimGradient(victims[i], i%4)
		if err != nil {
			t.Fatal(err)
		}
		grads[i] = g
	}

	// ESA: the aggregator sees the batch in randomized owner order.
	shuffled := core.ESAShuffleUpdates(grads, []byte("esa-key-0123456789abcdef012345"), []byte("round-1"))

	// The adversary attacks each anonymous update; every one reconstructs
	// *some* victim's input even though ownership is hidden.
	reconstructed := 0
	for i, g := range shuffled {
		obs := &Observation{Scenario: ScenarioFull, Observed: g}
		// The adversary does not know the label either; try each victim's
		// data only for MSE scoring — the reconstruction itself uses DLG's
		// joint label optimization.
		res, err := DLG(o, obs, victims[0], 0, DLGConfig{
			Iterations: 200, LR: 0.3, Seed: []byte{byte(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Score against every victim; a hit against any of them is a leak.
		best := res.MSE
		for _, v := range victims {
			if m, err := tensor.MSE(res.Recon, tensor.Vector(v)); err == nil && m < best {
				best = m
			}
		}
		if best < 1e-2 {
			reconstructed++
		}
	}
	if reconstructed == 0 {
		t.Fatal("ESA-shuffled updates resisted reconstruction; expected them to leak (anonymity != content protection)")
	}

	// Contrast: DeTA parameter-level shuffling on the same gradient
	// defeats the identical attack.
	sh, err := core.NewShuffler([]byte("deta-key-0123456789abcdef012345"))
	if err != nil {
		t.Fatal(err)
	}
	protected, err := sh.Shuffle(grads[0], []byte("round-1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	obs := &Observation{Scenario: ScenarioFullShuffle, Observed: protected}
	res, err := DLG(o, obs, victims[0], 0, DLGConfig{Iterations: 200, LR: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MSE < 1e-1 {
		t.Fatalf("DeTA-shuffled update reconstructed: MSE %v", res.MSE)
	}
}

func TestESAShufflePreservesMultiset(t *testing.T) {
	updates := []tensor.Vector{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	out := core.ESAShuffleUpdates(updates, []byte("key-0123456789abcdef"), []byte("r"))
	if len(out) != len(updates) {
		t.Fatalf("len = %d", len(out))
	}
	seen := map[float64]bool{}
	for _, u := range out {
		if u[0] != u[1] {
			t.Fatal("update content modified")
		}
		seen[u[0]] = true
	}
	for _, u := range updates {
		if !seen[u[0]] {
			t.Fatalf("update %v lost in shuffle", u)
		}
	}
	// Copies, not aliases.
	out[0][0] = 99
	for _, u := range updates {
		if u[0] == 99 {
			t.Fatal("ESA shuffle aliased input storage")
		}
	}
}
