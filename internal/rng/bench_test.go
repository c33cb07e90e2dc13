package rng

import (
	"fmt"
	"testing"
)

func BenchmarkStreamUint64(b *testing.B) {
	s := NewStream([]byte("bench"), "u64")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkPerm(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := NewStream([]byte("bench"), "perm")
				s.Perm(n)
			}
		})
	}
}

func BenchmarkDeriveSeed(b *testing.B) {
	key := []byte("permutation-key-0123456789abcdef")
	round := []byte("round-identifier")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DeriveSeed(key, round, []byte("partition-1"))
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := NewStream([]byte("bench"), "gauss")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.NormFloat64()
	}
}

func BenchmarkKeyedPerm(b *testing.B) {
	seed := DeriveSeed([]byte("bench"), []byte("keyed-perm"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := KeyedPerm(seed, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}
