package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
)

// durableState is what a journal must carry across a crash: everything an
// AggregatorNode holds except its ephemeral liveness and lifecycle
// timestamps. Floats are kept as their bits, so equality is bit equality.
type durableState struct {
	Parties, Evicted []string
	Quorum           int
	Retention        int
	LastAggregated   int
	Rounds           map[int]roundImage
}

type roundImage struct {
	Fragments  map[string][]uint64
	Weights    map[string]uint64
	Aggregated []byte // the fused round's record; nil while the round is open
}

func vectorBits(v tensor.Vector) []uint64 {
	if v == nil {
		return nil
	}
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// durableStateOf images a's durable state. It fails the test if a holds a
// contribution recovery has not read back: a node that serves must hold
// every upload's values, not an offset into its journal.
func durableStateOf(t *testing.T, a *AggregatorNode) durableState {
	t.Helper()
	a.mu.Lock()
	defer a.mu.Unlock()
	st := durableState{
		Parties:        sortedKeys(a.parties),
		Evicted:        sortedKeys(a.evicted),
		Quorum:         a.quorum,
		Retention:      a.retention,
		LastAggregated: a.lastAggregated,
		Rounds:         make(map[int]roundImage, len(a.rounds)),
	}
	for r, rs := range a.rounds {
		img := roundImage{
			Fragments:  make(map[string][]uint64, len(rs.uploads)),
			Weights:    make(map[string]uint64, len(rs.uploads)),
			Aggregated: rs.aggregated,
		}
		for p, u := range rs.uploads {
			if u.unread {
				t.Fatalf("round %d upload from %s is still unread at journal offset %d", r, p, u.at)
			}
			img.Fragments[p] = vectorBits(u.frag)
			img.Weights[p] = math.Float64bits(u.weight)
		}
		st.Rounds[r] = img
	}
	return st
}

// recoverCopy recovers a node from a copy of src's journal, as a process
// that crashed right now would, and returns its durable state.
func recoverCopy(t *testing.T, cvm *sev.CVM, src, dst string) durableState {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(src, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "wal.log"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	node, _, err := RecoverAggregatorNode("agg-replay", agg.IterativeAverage{}, cvm, dst, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer node.CloseJournal()
	return durableStateOf(t, node)
}

// TestCompactionReplaysExactly drives a journalled node through seeded
// random schedules of every journalled mutation — registration, uploads
// (stragglers below the retention horizon included), fusion, quorum and
// retention changes, heartbeats, downloads, and clock advances that evict
// silent parties — compacting at the first fused round after every 1–4
// records. After every step a node recovered from the journal as it is on
// disk must hold the live node's durable state bit for bit. The record
// order compaction writes is what this pins: membership written before the
// uploads, or open rounds before fused ones, recovers a different node.
// Every seed meant to compact must compact at least once. Every fifth seed
// never compacts, so its recovery replays the records the live node
// committed, not compaction's rewrite of them: that arm pins apply's
// live/replay equality on its own.
func TestCompactionReplaysExactly(t *testing.T) {
	ap := testAP(t)
	cvm := provisionCVM(t, ap, "agg-replay")
	// Compaction runs only at a fused round, and a schedule fuses a round
	// every 30 steps or so: 160 steps make every compacting seed compact.
	seeds, steps := 60, 160
	if testing.Short() {
		seeds = 10
	}
	parties := []string{"P0", "P1", "P2", "P3", "P4"}
	for seed := 1; seed <= seeds; seed++ {
		rnd := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
		dir := t.TempDir()
		node, _, err := RecoverAggregatorNode("agg-replay", agg.IterativeAverage{}, cvm, filepath.Join(dir, "live"), journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		clk := NewFakeClock(time.Unix(1_700_000_000, 0))
		node.SetClock(clk)
		compacts := seed%5 != 0
		node.SetCompactEvery(1 + seed%4)
		if !compacts {
			node.SetCompactEvery(1 << 30)
		}
		// A compaction renames a new file over wal.log.
		compactions, wal := 0, os.FileInfo(nil)
		node.SetLiveness(2*time.Second, 4*time.Second)
		if seed%2 == 0 {
			node.SetLifecycle(5*time.Second, time.Second)
		}
		party := func() string { return parties[rnd.IntN(len(parties))] }
		value := func() float64 {
			switch rnd.IntN(8) {
			case 0:
				return math.Copysign(0, -1)
			case 1:
				return math.NaN()
			}
			return float64(rnd.IntN(200)-100) / 8
		}
		for step := 0; step < steps; step++ {
			last := node.LastAggregatedRound()
			var op string
			switch k := rnd.IntN(10); {
			case k == 0:
				p := party()
				node.Register(p)
				op = "register " + p
			case k <= 3:
				p := party()
				r := last + 1 + rnd.IntN(2)
				if rnd.IntN(4) == 0 {
					r = 1 + rnd.IntN(last+1) // at or below the horizon
				}
				frag := tensor.Vector{value(), value(), value()}
				err := node.Upload(r, p, frag, float64(1+rnd.IntN(4)))
				op = fmt.Sprintf("upload %s round %d: %v", p, r, err)
			case k <= 5:
				r := max(last-1, 1) + rnd.IntN(3)
				op = fmt.Sprintf("aggregate round %d: %v", r, node.Aggregate(r))
			case k == 6:
				n := rnd.IntN(5) - 1
				node.SetQuorum(n)
				op = fmt.Sprintf("quorum %d", n)
			case k == 7:
				n := rnd.IntN(4) - 1
				node.SetRetention(n)
				op = fmt.Sprintf("retention %d", n)
			case k == 8:
				p := party()
				if rnd.IntN(2) == 0 {
					_, err := node.Heartbeat(p)
					op = fmt.Sprintf("heartbeat %s: %v", p, err)
				} else {
					_, err := node.Download(last, p)
					op = fmt.Sprintf("download %s round %d: %v", p, last, err)
				}
			default:
				d := time.Duration(1+rnd.IntN(3)) * time.Second
				clk.Advance(d)
				op = fmt.Sprintf("advance %v, evicted %v", d, node.Tick())
			}
			now, err := os.Stat(filepath.Join(dir, "live", "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			if wal != nil && !os.SameFile(now, wal) {
				compactions++
			}
			wal = now
			want := durableStateOf(t, node)
			got := recoverCopy(t, cvm, filepath.Join(dir, "live"), filepath.Join(dir, "recovered"))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): recovered state differs\n got: %+v\nwant: %+v", seed, step, op, got, want)
			}
		}
		if compacts != (compactions > 0) {
			t.Fatalf("seed %d compacted %d times; meant to compact: %v", seed, compactions, compacts)
		}
		if err := node.CloseJournal(); err != nil {
			t.Fatal(err)
		}
	}
}
