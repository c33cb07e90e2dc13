package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"deta/internal/agg"
	"deta/internal/tensor"
)

// fragBytes is the size of the fragments the allocation tests upload:
// 44 KB of values, whose request and read frames fit a seed buffer.
const fragBytes = 44_000

// recyclePattern is party p's update for round r: every round and every
// party a different set of values, so a buffer recycled while a held round
// still referenced it shows as another round's bytes.
func recyclePattern(r, p, n int) tensor.Vector {
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = float64(r*1_000_000+p*10_000+i) + 0.25
	}
	return v
}

// A breached aggregator cannot read a round it let go of out of the tensor
// pool: retention 1 evicts round 1 once round 2 fuses, and none of the
// next 16 buffers the pool hands out holds a value of round 1's fragments.
func TestEvictedFragmentsLeaveNoResidue(t *testing.T) {
	const dim = 2048
	node := newProvisionedNode(t, testAP(t), "agg-residue")
	node.SetRetention(1)
	ids := []string{"P0", "P1"}
	for _, id := range ids {
		node.Register(id)
	}
	evicted := map[float64]bool{}
	for r := 1; r <= 2; r++ {
		for p, id := range ids {
			frag := recyclePattern(r, p, dim)
			if r == 1 {
				for _, x := range frag {
					evicted[x] = true
				}
			}
			if err := node.Upload(r, id, frag, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
	}
	if held := node.RoundsHeld(); held != 1 {
		t.Fatalf("node holds %d rounds, want 1 after round 1's eviction", held)
	}
	for i := 0; i < 16; i++ {
		for j, x := range tensor.GetVector(dim) {
			if evicted[x] {
				t.Fatalf("buffer %d from the pool holds round 1's value %v at %d", i, x, j)
			}
		}
	}
}

// Uploads recycled at eviction never hand out a buffer a held round still
// references. 4 parties upload to 2 aggregators over in-memory listeners,
// retention 2, through the real RoundStep, so the parties' gathers, the
// aggregators' decodes and the evictions all share the process's pool.
// After every fusion, each round a node holds must leak exactly the
// fragments uploaded to it, and every party's model must equal the central
// weighted average, bit for bit.
func TestRecycledFragmentsNeverAliasHeldRounds(t *testing.T) {
	const parties, aggregators, retain, rounds, dim = 4, 2, 2, 30, 1500
	ap := testAP(t)
	nodes := make([]*AggregatorNode, aggregators)
	clients := make([]*AggregatorClient, aggregators)
	ids := make([]string, parties)
	for p := range ids {
		ids[p] = fmt.Sprintf("P%d", p)
	}
	for j := range nodes {
		nodes[j] = newProvisionedNode(t, ap, fmt.Sprintf("agg-recycle-%d", j))
		nodes[j].SetRetention(retain)
		for _, id := range ids {
			nodes[j].Register(id)
		}
		clients[j] = serveNode(t, nodes[j])
	}
	mapper, err := NewMapper(dim, EqualProportions(aggregators), []byte("recycle-mapper"))
	if err != nil {
		t.Fatal(err)
	}
	shuffler, err := NewShuffler([]byte("recycle-permutation-key-32-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	step := &RoundStep{Fleet: &Fleet{Clients: clients}, Mapper: mapper, Shuffler: shuffler, Shuffle: true}
	ctx := context.Background()

	// uploaded[r][j] is what node j received for round r, by party.
	uploaded := make(map[int][]map[string]tensor.Vector)
	for r := 1; r <= rounds; r++ {
		roundID := []byte(fmt.Sprintf("recycle-round-%d", r))
		updates := make([]tensor.Vector, parties)
		weights := make([]float64, parties)
		own := make([][]tensor.Vector, parties)
		uploaded[r] = make([]map[string]tensor.Vector, aggregators)
		for j := range uploaded[r] {
			uploaded[r][j] = make(map[string]tensor.Vector, parties)
		}
		for p, id := range ids {
			updates[p], weights[p] = recyclePattern(r, p, dim), float64(p+1)
			if own[p], err = step.Upload(ctx, r, id, roundID, updates[p], weights[p]); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			for j, frag := range own[p] {
				uploaded[r][j][id] = frag.Clone()
			}
		}
		for j, node := range nodes {
			if err := node.Aggregate(r); err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			for h := max(1, r-retain); h <= r; h++ {
				leaked := node.LeakRoundFragments(h)
				if h <= r-retain {
					if leaked != nil {
						t.Fatalf("node %d still holds round %d after round %d fused", j, h, r)
					}
					continue
				}
				for _, id := range ids {
					if !slices.Equal(leaked[id], uploaded[h][j][id]) {
						t.Fatalf("after round %d fused, node %d holds for round %d a fragment of %s that is not the one uploaded", r, j, h, id)
					}
				}
			}
		}
		delete(uploaded, r-retain)

		want, err := agg.IterativeAverage{}.Aggregate(updates, weights)
		if err != nil {
			t.Fatal(err)
		}
		for p, id := range ids {
			got, err := step.Finish(ctx, r, id, roundID, own[p])
			if err != nil {
				t.Fatalf("round %d: %v", r, err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("round %d: %s's model differs from the central average at %d: %v, want %v", r, id, i, got[i], want[i])
				}
			}
		}
	}
}

// An identical retry is acknowledged without storing its fragment, and the
// node hands the fragment it decoded for the retry back to the pool: 200
// retries of a 44 KB upload over the network allocate well under one
// fragment each.
func TestIdenticalRetryRecyclesItsFragment(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-retry")
	node.Register("P1")
	client := serveNode(t, node)
	ctx := context.Background()
	frag := recyclePattern(1, 1, fragBytes/8)
	upload := func() {
		if err := client.Upload(ctx, 1, "P1", frag, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	upload() // stored; the retries below are identical
	upload() // warms the pools
	// A GC that drains the pools mid-loop costs a refill, a request buffer
	// and a fragment: the bound leaves room for dozens.
	const retries = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < retries; i++ {
		upload()
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d identical retries allocated %d KiB, %.0f B each", retries, got>>10, float64(got)/retries)
	if bound := uint64(retries * fragBytes / 4); got > bound {
		t.Fatalf("%d identical retries of a %d-byte fragment allocated %d KiB, over a quarter fragment each (%d KiB)", retries, fragBytes, got>>10, bound>>10)
	}
}

// In steady state an upload's request body, read buffer and decoded
// fragment all come from pools: once retention has begun to evict, 44 KB
// uploads over the network allocate under half a fragment each.
func TestSteadyStateUploadsRecycleFragments(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	const parties, retain, warm, measured = 4, 2, 4, 20
	ap := testAP(t)
	node := newProvisionedNode(t, ap, "agg-steady")
	node.SetRetention(retain)
	ids := make([]string, parties)
	for p := range ids {
		ids[p] = fmt.Sprintf("P%d", p)
		node.Register(ids[p])
	}
	client := serveNode(t, node)
	ctx := context.Background()
	frags := make([]tensor.Vector, parties)
	for p := range frags {
		frags[p] = recyclePattern(0, p, fragBytes/8)
	}
	var uploads int
	var allocated uint64
	var before, after runtime.MemStats
	for r := 1; r <= warm+measured; r++ {
		runtime.ReadMemStats(&before)
		for p, id := range ids {
			if err := client.Upload(ctx, r, id, frags[p], 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if r > warm {
			uploads += parties
			allocated += after.TotalAlloc - before.TotalAlloc
		}
		// Fusion allocates the fused vector and its encoding: per round,
		// not per upload, so it stays out of the count.
		if err := node.Aggregate(r); err != nil {
			t.Fatal(err)
		}
	}
	each := float64(allocated) / float64(uploads)
	t.Logf("%d steady-state uploads allocated %.0f B each", uploads, each)
	if each > fragBytes/2 {
		t.Fatalf("steady-state uploads of %d-byte fragments allocated %.0f B each, over half a fragment", fragBytes, each)
	}
}
