package rng

import (
	"math"
	"slices"
	"strconv"
	"testing"
)

func permSeed(contexts ...string) []byte {
	cs := make([][]byte, len(contexts))
	for i, c := range contexts {
		cs[i] = []byte(c)
	}
	return DeriveSeed([]byte("keyed-perm-test-key"), cs...)
}

func isPerm32(p []uint32) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if int(v) >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

func TestKeyedPermIsPermutation(t *testing.T) {
	seed := permSeed("round-1", "partition-0")
	// 4 096 ends exactly on a keystream refill boundary; 87 382 is the
	// fragment length of the bulk benchmark workload.
	for _, n := range []int{0, 1, 2, 17, 4096, 87382} {
		p, err := KeyedPerm(seed, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(p) != n || !isPerm32(p) {
			t.Fatalf("KeyedPerm(%d) is not a permutation of [0,%d)", n, n)
		}
	}
}

func TestKeyedPermDeterministicAndSeedSensitive(t *testing.T) {
	const n = 1024
	base, err := KeyedPerm(permSeed("round-1", "partition-0"), n)
	if err != nil {
		t.Fatal(err)
	}
	again, err := KeyedPerm(permSeed("round-1", "partition-0"), n)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(base, again) {
		t.Fatal("equal seeds produced different permutations")
	}
	for _, ctx := range [][]string{{"round-2", "partition-0"}, {"round-1", "partition-1"}} {
		other, err := KeyedPerm(permSeed(ctx...), n)
		if err != nil {
			t.Fatal(err)
		}
		diff := 0
		for i := range base {
			if base[i] != other[i] {
				diff++
			}
		}
		if diff < n/2 {
			t.Errorf("%v: only %d/%d positions differ from round-1/partition-0", ctx, diff, n)
		}
	}
}

func TestKeyedPermRejectsBadInput(t *testing.T) {
	good := permSeed("ok")
	for _, seed := range [][]byte{nil, good[:16], good[:31], append(good[:32:32], 0)} {
		if p, err := KeyedPerm(seed, 8); err == nil || p != nil {
			t.Errorf("seed of %d bytes accepted", len(seed))
		}
	}
	if p, err := KeyedPerm(good, -1); err == nil || p != nil {
		t.Error("negative length accepted")
	}
	if strconv.IntSize > 32 {
		// Refused before the slice is made, so no 16 GiB allocation.
		tooLong := uint64(math.MaxUint32) + 1
		if p, err := KeyedPerm(good, int(tooLong)); err == nil || p != nil {
			t.Error("length beyond 32-bit indices accepted")
		}
	}
}

// TestKeyedPermUniformOverOrders: over many seeds every one of the 24
// orders of 4 elements must come up equally often. The draws at n = 4 use
// bounds 4, 3 and 2, so a bounded draw that reduced instead of rejecting
// would still pass here (2³² mod 3 is 1); TestBelowRejectsExactly is the
// guard for that. This one catches a wrong swap order or index range.
func TestKeyedPermUniformOverOrders(t *testing.T) {
	const seeds = 24000
	counts := make(map[[4]uint32]int)
	for i := 0; i < seeds; i++ {
		seed := DeriveSeed([]byte("chi-square"), []byte{byte(i), byte(i >> 8), byte(i >> 16)})
		p, err := KeyedPerm(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		counts[[4]uint32(p)]++
	}
	if len(counts) != 24 {
		t.Fatalf("%d distinct orders of 4 elements, want 24", len(counts))
	}
	want := float64(seeds) / 24
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - want
		chi2 += d * d / want
	}
	// 23 degrees of freedom: 49.7 is the 0.1 % point. The seeds are fixed,
	// so this is a regression check, not a flaky one.
	if chi2 > 49.7 {
		t.Errorf("chi-square over the 24 orders = %.1f, want below 49.7", chi2)
	}
}

func testKeystream(t *testing.T, seed []byte) *keystream {
	t.Helper()
	ks, err := newKeystream(seed)
	if err != nil {
		t.Fatal(err)
	}
	return &ks
}

// TestBelowRejectsExactly is the exact-uniformity guard. At bound 2³¹+1
// every result must keep exactly one of its two preimages, so about half
// of all draws are rejected: below must agree, draw for draw, with the
// textbook form of the rule (no fast path, threshold from a plain 64-bit
// remainder) run over an identical keystream, and stay uniform.
func TestBelowRejectsExactly(t *testing.T) {
	const bound uint32 = 1<<31 + 1
	const threshold = (1 << 32) % uint64(bound)
	const draws = 40000
	seed := permSeed("below")
	fast, ref := testKeystream(t, seed), testKeystream(t, seed)
	rejected := 0
	var quarters [4]int
	for i := 0; i < draws; i++ {
		var want uint32
		for {
			m := uint64(ref.next32()) * uint64(bound)
			if m&math.MaxUint32 >= threshold {
				want = uint32(m >> 32)
				break
			}
			rejected++
		}
		got := fast.below(bound)
		if got != want {
			t.Fatalf("draw %d: below = %d, reference = %d", i, got, want)
		}
		if got >= bound {
			t.Fatalf("draw %d: %d is outside [0, %d)", i, got, bound)
		}
		quarters[uint64(got)*4/uint64(bound)]++
	}
	// Each word is rejected with probability (2³¹−1)/2³² ≈ ½, so accepted
	// draws see one rejection each on average.
	if rate := float64(rejected) / float64(rejected+draws); rate < 0.48 || rate > 0.52 {
		t.Errorf("rejected %.3f of the words at bound 2^31+1, want about half", rate)
	}
	for q, c := range quarters {
		if want := draws / 4.0; math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("quarter %d of the range drew %d of %d values", q, c, draws)
		}
	}

	// Small and extreme bounds stay in range; bound 1 consumes a word and
	// returns 0.
	for _, b := range []uint32{1, 2, 3, 7, 1 << 16, 1<<32 - 1} {
		for i := 0; i < 1000; i++ {
			if v := fast.below(b); v >= b {
				t.Fatalf("below(%d) = %d", b, v)
			}
		}
	}
}
