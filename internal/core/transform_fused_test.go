package core

import (
	"math"
	"strconv"
	"sync"
	"testing"

	"deta/internal/rng"
	"deta/internal/tensor"
)

// transform_fused_test.go proves the fused Transform/InverseTransform
// gather/scatter passes are bit-identical to the unfused composition they
// replaced (Partition∘Shuffle and Unshuffle∘Merge), including non-finite
// values, and that the two-round permutation cache is bounded and safe under
// concurrent and overlapping rounds.

// unfusedTransform is the reference composition the fused path must match.
func unfusedTransform(t *testing.T, m *Mapper, s *Shuffler, update tensor.Vector, roundID []byte) []tensor.Vector {
	t.Helper()
	frags, err := m.Partition(update)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]tensor.Vector, len(frags))
	for j, frag := range frags {
		out[j] = mustShuffle(t, s, frag, roundID, j)
	}
	return out
}

// unfusedInverse is the reference Unshuffle-then-Merge composition.
func unfusedInverse(t *testing.T, m *Mapper, s *Shuffler, frags []tensor.Vector, roundID []byte) tensor.Vector {
	t.Helper()
	plain := make([]tensor.Vector, len(frags))
	for j, frag := range frags {
		plain[j] = mustUnshuffle(t, s, frag, roundID, j)
	}
	merged, err := m.Merge(plain)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestTransformFusedEquivalence: for a spread of model sizes and partition
// counts, the fused single-pass Transform must produce bit-identical
// fragments to Partition followed by Shuffle, and the fused scatter
// InverseTransform must match Unshuffle followed by Merge. Values include
// NaN, ±Inf and -0.0 so the comparison is on bits, not float equality.
func TestTransformFusedEquivalence(t *testing.T) {
	s := testShuffler(t)
	for _, tc := range []struct {
		n int
		k int
	}{
		{1, 1}, {7, 3}, {97, 3}, {256, 2}, {1024, 5}, {4097, 4},
	} {
		m, err := NewMapper(tc.n, EqualProportions(tc.k), []byte("fused"))
		if err != nil {
			t.Fatal(err)
		}
		v := make(tensor.Vector, tc.n)
		st := rng.NewStream([]byte("fused-vals"), "v")
		for i := range v {
			v[i] = st.NormFloat64()
		}
		// Seed awkward values where the vector is big enough to hold them.
		for i, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
			if i < len(v) {
				v[i] = x
			}
		}
		roundID := []byte("round-eq")

		want := unfusedTransform(t, m, s, v, roundID)
		got, err := Transform(m, s, v, roundID, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("n=%d k=%d: fused produced %d fragments, want %d", tc.n, tc.k, len(got), len(want))
		}
		for j := range want {
			if len(got[j]) != len(want[j]) {
				t.Fatalf("n=%d k=%d: fragment %d length %d, want %d", tc.n, tc.k, j, len(got[j]), len(want[j]))
			}
			for i := range want[j] {
				if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
					t.Fatalf("n=%d k=%d: fragment %d diverges at %d: %x vs %x",
						tc.n, tc.k, j, i, math.Float64bits(got[j][i]), math.Float64bits(want[j][i]))
				}
			}
		}

		wantBack := unfusedInverse(t, m, s, want, roundID)
		gotBack, err := InverseTransform(m, s, got, roundID, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantBack {
			if math.Float64bits(gotBack[i]) != math.Float64bits(wantBack[i]) {
				t.Fatalf("n=%d k=%d: inverse diverges at %d", tc.n, tc.k, i)
			}
		}
		// And the full round trip restores the input bit-for-bit.
		for i := range v {
			if math.Float64bits(gotBack[i]) != math.Float64bits(v[i]) {
				t.Fatalf("n=%d k=%d: round trip diverges at %d", tc.n, tc.k, i)
			}
		}
		for _, frag := range got {
			tensor.PutVector(frag)
		}
	}
}

// TestTransformConcurrentRounds hammers one shuffler from 8 goroutines
// that each walk 24 rounds at their own pace, so at any moment more rounds
// are live than the cache's two: fills, hits, duplicate derivations of one
// key and evictions of a round another goroutine is still using all race
// here. Run under -race -count=10; correctness is checked by
// round-tripping every transform.
func TestTransformConcurrentRounds(t *testing.T) {
	m, err := NewMapper(512, EqualProportions(4), []byte("conc"))
	if err != nil {
		t.Fatal(err)
	}
	s := testShuffler(t)
	v := make(tensor.Vector, 512)
	st := rng.NewStream([]byte("conc-vals"), "v")
	for i := range v {
		v[i] = st.NormFloat64()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 24; r++ {
				roundID := []byte{byte(r)}
				frags, err := Transform(m, s, v, roundID, true)
				if err != nil {
					t.Error(err)
					return
				}
				back, err := InverseTransform(m, s, frags, roundID, true)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range v {
					if math.Float64bits(back[i]) != math.Float64bits(v[i]) {
						t.Errorf("goroutine %d round %d: round trip diverged at %d", g, r, i)
						return
					}
				}
				for _, frag := range frags {
					tensor.PutVector(frag)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := cachedPerms(s); n > 2*4 {
		t.Errorf("cache holds %d permutations after concurrent rounds, want at most 2 rounds x 4 partitions", n)
	}
}

// cachedPerms counts the permutations a shuffler is holding on to.
func cachedPerms(s *Shuffler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.rounds {
		n += len(r.perms)
	}
	return n
}

// TestShufflerCacheKeepsTwoRounds: round IDs are fresh every round, so the
// cache must not grow with the number of rounds played — it holds the two
// most recent rounds' K permutations — and an evicted round is derived
// again, identically, when asked for.
func TestShufflerCacheKeepsTwoRounds(t *testing.T) {
	const k = 3
	m, err := NewMapper(300, EqualProportions(k), []byte("cache"))
	if err != nil {
		t.Fatal(err)
	}
	s := testShuffler(t)
	v := make(tensor.Vector, 300)
	for i := range v {
		v[i] = float64(i)
	}
	var first []tensor.Vector
	for r := 0; r < 50; r++ {
		frags, err := Transform(m, s, v, []byte{'r', byte(r)}, true)
		if err != nil {
			t.Fatal(err)
		}
		if r == 0 {
			first = frags
		}
		if n := cachedPerms(s); n > 2*k {
			t.Fatalf("after %d fresh rounds the cache holds %d permutations, want at most %d", r+1, n, 2*k)
		}
	}
	// The two newest rounds are served from the cache: same backing array.
	for _, r := range []int{48, 49} {
		p1, err := s.perm([]byte{'r', byte(r)}, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := s.perm([]byte{'r', byte(r)}, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if &p1[0] != &p2[0] {
			t.Errorf("round %d was derived twice", r)
		}
	}
	// Round 0 is long gone; it still inverts what it transformed.
	back, err := InverseTransform(m, s, first, []byte{'r', 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if back[i] != v[i] {
			t.Fatalf("evicted round no longer round-trips at %d", i)
		}
	}
	if n := cachedPerms(s); n > 2*k {
		t.Errorf("re-deriving an evicted round left %d permutations cached, want at most %d", n, 2*k)
	}
}

// TestTransformOverlappingRounds: the download of round r can arrive after
// round r+1 was transformed.
func TestTransformOverlappingRounds(t *testing.T) {
	m, err := NewMapper(257, EqualProportions(3), []byte("overlap"))
	if err != nil {
		t.Fatal(err)
	}
	s := testShuffler(t)
	v := make(tensor.Vector, 257)
	st := rng.NewStream([]byte("overlap-vals"), "v")
	for i := range v {
		v[i] = st.NormFloat64()
	}
	r0, r1 := []byte("round-7"), []byte("round-8")
	f0, err := Transform(m, s, v, r0, true)
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string, frags []tensor.Vector, roundID []byte) {
		t.Helper()
		back, err := InverseTransform(m, s, frags, roundID, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("%s: round trip diverged at %d", step, i)
			}
		}
	}
	check("inverse(r)", f0, r0)
	f1, err := Transform(m, s, v, r1, true)
	if err != nil {
		t.Fatal(err)
	}
	check("inverse(r) after transform(r+1)", f0, r0)
	check("inverse(r+1)", f1, r1)
}

// TestPermRefusesOversizedFragment: a fragment too long for 32-bit indices
// is an error out of perm — which Transform and InverseTransform return as
// it is — never a panic or a permutation of the truncated length.
func TestPermRefusesOversizedFragment(t *testing.T) {
	if strconv.IntSize == 32 {
		t.Skip("no such length on a 32-bit platform")
	}
	tooLong := uint64(math.MaxUint32) + 1
	s := testShuffler(t)
	if p, err := s.perm([]byte("r"), 0, int(tooLong)); err == nil || p != nil {
		t.Fatalf("perm of length %d returned %d indices, error %v", tooLong, len(p), err)
	}
	if n := cachedPerms(s); n != 0 {
		t.Errorf("a refused permutation left %d cache entries", n)
	}
}

// TestTransformLengthMismatch pins the fused path's validation errors,
// which must match the unfused path's behavior.
func TestTransformLengthMismatch(t *testing.T) {
	m, _ := NewMapper(10, EqualProportions(2), []byte("t"))
	s := testShuffler(t)
	if _, err := Transform(m, s, make(tensor.Vector, 9), []byte("r"), true); err == nil {
		t.Fatal("fused transform accepted a short update")
	}
	frags, err := Transform(m, s, make(tensor.Vector, 10), []byte("r"), true)
	if err != nil {
		t.Fatal(err)
	}
	frags[0] = frags[0][:len(frags[0])-1]
	if _, err := InverseTransform(m, s, frags, []byte("r"), true); err == nil {
		t.Fatal("fused inverse accepted a short fragment")
	}
	if _, err := InverseTransform(m, s, frags[:1], []byte("r"), true); err == nil {
		t.Fatal("fused inverse accepted missing fragments")
	}
}
