// Package rng implements the deterministic, keyed randomness DeTA depends
// on. Two properties matter:
//
//  1. Every party must derive the *same* permutation for a given
//     (permutation key, training-round identifier) pair, because aggregation
//     only works if all parties shuffle identically (paper §4.2).
//  2. An adversary without the permutation key must face the full key space:
//     every output is a keyed PRF stream, so permutations are unpredictable
//     without the key.
//
// There are two generators, one per job:
//
//   - Stream is the general-purpose one: HMAC-SHA256 in counter mode under
//     an arbitrary-length key and a label, with exact-rejection integers,
//     Fisher-Yates (Perm, Shuffle) and Gaussians. Everything computed once
//     per job uses it — the model mapper, dataset splits, ESA, model
//     initialization, synthetic data — and its output is pinned byte for
//     byte (kat_test.go), so those never change under a refactor.
//   - KeyedPerm is the per-round one: it expands a 32-byte DeriveSeed output
//     into a permutation with AES-256-CTR, because a party derives K fresh
//     fragment-sized permutations every round and a hash block per 32
//     bytes of Fisher-Yates input was half of a round's latency.
//
// KeyedPerm keeps both properties. The AES key is DeriveSeed(permKey,
// label, round, partition) — HMAC-SHA256, a PRF of the permutation key — so
// without the permutation key the AES key is indistinguishable from a
// uniform one, and AES-CTR under a uniform key used for a single stream is
// itself a PRF stream (which is why the counter block may start at zero:
// no AES key is ever used for a second stream). Bounded draws reject
// exactly the inputs that would bias them, so the permutation is uniform
// over the stream, and all of it is a function of (seed, n) alone, so every
// party derives the same one. Its output is pinned too: two versions of a
// party that expanded a seed differently could not aggregate together.
package rng

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// Stream is a deterministic pseudorandom byte/number stream keyed by an
// arbitrary-length secret and a domain-separation label. It is HMAC-SHA256
// run in counter mode: block i = HMAC(key, label || uint64(i)).
type Stream struct {
	mac     hash.Hash // HMAC keyed once; Reset per block keeps the key state
	label   []byte
	counter uint64
	ctr     [8]byte // counter scratch; a field so Write's argument does not escape per block
	buf     [sha256.Size]byte
	used    int

	// Gaussian spare value (Box-Muller generates pairs).
	haveSpare bool
	spare     float64
}

// NewStream returns a stream keyed by key with the given domain-separation
// label. Distinct labels produce independent streams under the same key.
func NewStream(key []byte, label string) *Stream {
	return &Stream{
		mac:   hmac.New(sha256.New, key),
		label: []byte(label),
		used:  sha256.Size, // force refill on first use
	}
}

// DeriveSeed computes a 32-byte subkey from key and the concatenation of
// contexts — used, e.g., to mix a permutation key with a round identifier.
func DeriveSeed(key []byte, contexts ...[]byte) []byte {
	mac := hmac.New(sha256.New, key)
	for _, c := range contexts {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(c)))
		mac.Write(n[:])
		mac.Write(c)
	}
	return mac.Sum(nil)
}

// Fingerprint returns a short, non-invertible identifier for key
// material: the first 8 bytes of SHA-256("deta-fingerprint/v1" || key),
// hex-encoded. It is the ONLY form in which key bytes may appear in logs,
// error strings, or diagnostics (enforced by the keytaint analyzer):
// recovering the key means inverting SHA-256, and 64 bits is too short to
// substitute for the key anywhere it is actually used. Parties can still
// compare fingerprints to confirm they were issued the same key.
func Fingerprint(key []byte) string {
	h := sha256.New()
	h.Write([]byte("deta-fingerprint/v1"))
	h.Write(key)
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func (s *Stream) refill() {
	s.mac.Reset()
	s.mac.Write(s.label)
	binary.BigEndian.PutUint64(s.ctr[:], s.counter)
	s.mac.Write(s.ctr[:])
	s.mac.Sum(s.buf[:0])
	s.counter++
	s.used = 0
}

// Bytes fills p with pseudorandom bytes.
func (s *Stream) Bytes(p []byte) {
	for len(p) > 0 {
		if s.used == len(s.buf) {
			s.refill()
		}
		n := copy(p, s.buf[s.used:])
		s.used += n
		p = p[n:]
	}
}

// Uint64 returns the next pseudorandom 64-bit value.
func (s *Stream) Uint64() uint64 {
	var b [8]byte
	s.Bytes(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Uniformity is exact via rejection sampling.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	// Largest multiple of n that fits in a uint64; reject values above it.
	limit := math.MaxUint64 - math.MaxUint64%un
	for {
		v := s.Uint64()
		if v < limit {
			return int(v % un)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	// 53 random mantissa bits.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard-normal sample (Box-Muller).
func (s *Stream) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u1 := s.Float64()
		if u1 == 0 {
			continue
		}
		u2 := s.Float64()
		r := math.Sqrt(-2 * math.Log(u1))
		s.spare = r * math.Sin(2*math.Pi*u2)
		s.haveSpare = true
		return r * math.Cos(2*math.Pi*u2)
	}
}

// Perm returns a uniform pseudorandom permutation of [0, n) via
// Fisher-Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the order of n elements using swap, Fisher-Yates style.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// InversePerm returns the inverse of permutation p: out[p[i]] = i.
func InversePerm(p []int) []int {
	out := make([]int, len(p))
	for i, v := range p {
		out[v] = i
	}
	return out
}

// IsPerm reports whether p is a permutation of [0, len(p)).
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
