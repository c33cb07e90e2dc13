package core

import (
	"testing"

	"deta/internal/tensor"
)

// FuzzShuffleRoundTrip drives the shuffle/unshuffle pair with arbitrary
// keys, round identifiers, and vector contents: the round trip must always
// be the identity and never panic.
func FuzzShuffleRoundTrip(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("round-1"), 16, int64(42))
	f.Add([]byte("another-32-byte-permutation-key!"), []byte{0}, 1, int64(-7))
	f.Add([]byte("0123456789abcdefXYZ"), []byte("r"), 100, int64(0))
	f.Fuzz(func(t *testing.T, key, roundID []byte, n int, fill int64) {
		if len(key) < 16 || n < 0 || n > 4096 {
			t.Skip()
		}
		s, err := NewShuffler(key)
		if err != nil {
			t.Skip()
		}
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = float64(fill) + float64(i)*0.5
		}
		for partition := 0; partition < 3; partition++ {
			sh := mustShuffle(t, s, v, roundID, partition)
			back := mustUnshuffle(t, s, sh, roundID, partition)
			for i := range v {
				if back[i] != v[i] {
					t.Fatalf("round trip failed at %d (partition %d)", i, partition)
				}
			}
		}
	})
}

// FuzzMapperRoundTrip drives Partition/Merge with arbitrary seeds, sizes,
// and proportion splits.
func FuzzMapperRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), 10, uint8(128))
	f.Add([]byte{}, 1, uint8(0))
	f.Add([]byte("x"), 999, uint8(255))
	f.Fuzz(func(t *testing.T, seed []byte, n int, splitRaw uint8) {
		if n <= 0 || n > 4096 {
			t.Skip()
		}
		// A two-way split with an arbitrary proportion in (0,1).
		p := (float64(splitRaw) + 1) / 257
		m, err := NewMapper(n, []float64{p, 1 - p}, seed)
		if err != nil {
			t.Fatalf("mapper rejected valid inputs: %v", err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("invalid mapper: %v", err)
		}
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = float64(i)
		}
		frags, err := m.Partition(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := m.Merge(frags)
		if err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if back[i] != v[i] {
				t.Fatalf("merge mismatch at %d", i)
			}
		}
	})
}
