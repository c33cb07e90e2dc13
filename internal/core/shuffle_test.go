package core

import (
	"testing"
	"testing/quick"

	"deta/internal/rng"
	"deta/internal/tensor"
)

func testShuffler(t testing.TB) *Shuffler {
	s, err := NewShuffler([]byte("0123456789abcdef0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustShuffle(t testing.TB, s *Shuffler, v tensor.Vector, roundID []byte, partition int) tensor.Vector {
	t.Helper()
	out, err := s.Shuffle(v, roundID, partition)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func mustUnshuffle(t testing.TB, s *Shuffler, v tensor.Vector, roundID []byte, partition int) tensor.Vector {
	t.Helper()
	out, err := s.Unshuffle(v, roundID, partition)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNewShufflerKeyLength(t *testing.T) {
	if _, err := NewShuffler([]byte("short")); err == nil {
		t.Fatal("short key accepted")
	}
}

// Property (DESIGN.md §5): Unshuffle(Shuffle(v)) == v for every key, round,
// partition and length.
func TestShuffleInverseProperty(t *testing.T) {
	s := testShuffler(t)
	f := func(round uint16, part uint8, nRaw uint8) bool {
		n := int(nRaw) + 1
		roundID := []byte{byte(round), byte(round >> 8)}
		v := make(tensor.Vector, n)
		st := rng.NewStream([]byte{byte(round)}, "vals")
		for i := range v {
			v[i] = st.NormFloat64()
		}
		sh := mustShuffle(t, s, v, roundID, int(part%5))
		back := mustUnshuffle(t, s, sh, roundID, int(part%5))
		for i := range v {
			if back[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShuffleChangesAcrossRounds(t *testing.T) {
	s := testShuffler(t)
	v := make(tensor.Vector, 64)
	for i := range v {
		v[i] = float64(i)
	}
	r1 := mustShuffle(t, s, v, []byte("round-1"), 0)
	r2 := mustShuffle(t, s, v, []byte("round-2"), 0)
	diff := 0
	for i := range r1 {
		if r1[i] != r2[i] {
			diff++
		}
	}
	if diff < 32 {
		t.Fatalf("permutations across rounds too similar: %d/64 differ", diff)
	}
}

func TestShuffleDiffersAcrossPartitions(t *testing.T) {
	s := testShuffler(t)
	v := make(tensor.Vector, 64)
	for i := range v {
		v[i] = float64(i)
	}
	p0 := mustShuffle(t, s, v, []byte("r"), 0)
	p1 := mustShuffle(t, s, v, []byte("r"), 1)
	same := true
	for i := range p0 {
		if p0[i] != p1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("partitions share one permutation")
	}
}

func TestShuffleIsKeyed(t *testing.T) {
	a := testShuffler(t)
	b, err := NewShuffler([]byte("another-key-entirely-0123456789!"))
	if err != nil {
		t.Fatal(err)
	}
	v := make(tensor.Vector, 64)
	for i := range v {
		v[i] = float64(i)
	}
	sa := mustShuffle(t, a, v, []byte("r"), 0)
	sb := mustShuffle(t, b, v, []byte("r"), 0)
	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different keys produced identical shuffles")
	}
	// An adversary with the wrong key cannot unshuffle.
	wrong := mustUnshuffle(t, b, sa, []byte("r"), 0)
	recovered := true
	for i := range v {
		if wrong[i] != v[i] {
			recovered = false
			break
		}
	}
	if recovered {
		t.Fatal("wrong key recovered the original order")
	}
}

func TestShuffleSameForAllParties(t *testing.T) {
	// Two parties holding the same key and round ID must produce the same
	// permutation — the requirement for aggregation to work.
	a := testShuffler(t)
	b := testShuffler(t)
	v := make(tensor.Vector, 32)
	for i := range v {
		v[i] = float64(i) * 1.5
	}
	sa := mustShuffle(t, a, v, []byte("r9"), 2)
	sb := mustShuffle(t, b, v, []byte("r9"), 2)
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatal("parties with same key+round derived different permutations")
		}
	}
}

func TestTransformInverseRoundTrip(t *testing.T) {
	m, err := NewMapper(97, []float64{0.5, 0.3, 0.2}, []byte("t"))
	if err != nil {
		t.Fatal(err)
	}
	s := testShuffler(t)
	v := make(tensor.Vector, 97)
	st := rng.NewStream([]byte("tv"), "v")
	for i := range v {
		v[i] = st.NormFloat64()
	}
	for _, shuffle := range []bool{false, true} {
		frags, err := Transform(m, s, v, []byte("round-3"), shuffle)
		if err != nil {
			t.Fatal(err)
		}
		back, err := InverseTransform(m, s, frags, []byte("round-3"), shuffle)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("shuffle=%v: round trip failed at %d", shuffle, i)
			}
		}
	}
}

func TestTransformNeedsShuffler(t *testing.T) {
	m, _ := NewMapper(10, EqualProportions(2), []byte("t"))
	v := make(tensor.Vector, 10)
	if _, err := Transform(m, nil, v, []byte("r"), true); err == nil {
		t.Fatal("shuffle without shuffler accepted")
	}
	frags, _ := m.Partition(v)
	if _, err := InverseTransform(m, nil, frags, []byte("r"), true); err == nil {
		t.Fatal("unshuffle without shuffler accepted")
	}
}

// Identical updates at different rounds must produce different wire images
// (DESIGN.md §5: no positional leakage across rounds).
func TestWireImageVariesAcrossRounds(t *testing.T) {
	m, _ := NewMapper(128, EqualProportions(2), []byte("w"))
	s := testShuffler(t)
	v := make(tensor.Vector, 128)
	for i := range v {
		v[i] = float64(i)
	}
	f1, _ := Transform(m, s, v, []byte("round-1"), true)
	f2, _ := Transform(m, s, v, []byte("round-2"), true)
	diff := 0
	for i := range f1[0] {
		if f1[0][i] != f2[0][i] {
			diff++
		}
	}
	if diff < len(f1[0])/2 {
		t.Fatalf("wire image too stable across rounds: %d/%d positions differ", diff, len(f1[0]))
	}
}
