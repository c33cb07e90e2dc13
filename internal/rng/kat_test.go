package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"
)

// Known-answer tests. Stream feeds everything that is computed once per job
// (mapper, dataset splits, ESA, model initialization), KeyedPerm every
// round's shuffle; a silent change to either would make two versions of a
// party disagree, or move every experiment's inputs.

// TestStreamKnownAnswer pins Stream's output. The expected values were
// generated at commit 044f94f, before refill reused one keyed hash, and
// must never be regenerated to make a change pass.
func TestStreamKnownAnswer(t *testing.T) {
	key := []byte("deta-kat-key/v1")
	const label = "kat-label"

	const wantBytes = "ceb225b3c41480cdafda2e00bdb8431372edeb2f1ae51d24f02cff47e76edda8" +
		"b531f0e87d58132617122fd5c353cde3e94d8a664450ed9bdf2b9c83cd473db9"
	s := NewStream(key, label)
	got := make([]byte, 64)
	s.Bytes(got)
	if hex.EncodeToString(got) != wantBytes {
		t.Errorf("first 64 bytes = %x, want %s", got, wantBytes)
	}
	// The same stream carried on: blocks past the first two, and the
	// Gaussian spare, are covered too.
	if p, want := s.Perm(16), []int{3, 1, 8, 4, 15, 13, 6, 7, 14, 0, 5, 2, 12, 9, 11, 10}; !slices.Equal(p, want) {
		t.Errorf("continued Perm(16) = %v, want %v", p, want)
	}
	if g, want := math.Float64bits(s.NormFloat64()), uint64(0x3fcd7cff54a0614d); g != want {
		t.Errorf("continued NormFloat64 = %#x, want %#x", g, want)
	}

	if p, want := NewStream(key, label).Perm(16), []int{10, 0, 9, 7, 4, 12, 3, 2, 1, 5, 11, 14, 8, 6, 15, 13}; !slices.Equal(p, want) {
		t.Errorf("Perm(16) = %v, want %v", p, want)
	}
	if g, want := math.Float64bits(NewStream(key, label).NormFloat64()), uint64(0xbfd0290f044537af); g != want {
		t.Errorf("NormFloat64 = %#x, want %#x", g, want)
	}

	const wantSeed = "10e76d285b42c69cd23f634ab57cbfc0d2bae9828213294de4164f6d53c40e8d"
	if seed := DeriveSeed(key, []byte("round-1"), []byte("partition-0")); hex.EncodeToString(seed) != wantSeed {
		t.Errorf("DeriveSeed = %x, want %s", seed, wantSeed)
	}
}

// TestKeyedPermKnownAnswer pins KeyedPerm's expansion of a seed. The
// expected values come from an independent computation (openssl's
// aes-256-ctr keystream over zeros with a zero IV, read as little-endian
// 32-bit words, through a Fisher-Yates pass with Lemire rejection), so the
// test pins the construction the package comment describes, not just what
// the code happened to do.
func TestKeyedPermKnownAnswer(t *testing.T) {
	seed := make([]byte, permSeedSize)
	for i := range seed {
		seed[i] = byte(i)
	}
	p, err := KeyedPerm(seed, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{4, 3, 0, 7, 15, 10, 13, 14, 2, 1, 9, 8, 6, 5, 12, 11}; !slices.Equal(p, want) {
		t.Errorf("KeyedPerm(16) = %v, want %v", p, want)
	}
	// Long enough to leave the first draws' tiny bounds behind.
	p, err = KeyedPerm(seed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 0, 4*len(p))
	for _, v := range p {
		raw = binary.LittleEndian.AppendUint32(raw, v)
	}
	const want = "0f54abd286439bdc7ce16dbd9ec68cc55807c8640b9c045e614743ecb038fa79"
	if sum := sha256.Sum256(raw); hex.EncodeToString(sum[:]) != want {
		t.Errorf("SHA-256 of KeyedPerm(1000) = %x, want %s", sum, want)
	}
}
