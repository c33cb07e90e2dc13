package rng

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"
	"math"
)

// permSeedSize is the seed length KeyedPerm takes: an AES-256 key, which is
// what DeriveSeed returns.
const permSeedSize = 32

// KeyedPerm returns the permutation of [0, n) that seed selects: a
// Fisher-Yates pass whose draws come from AES-256-CTR keyed with seed. The
// result is a function of (seed, n) alone and uniform over the keystream
// (bounded draws reject instead of reducing, see below). seed must be a
// DeriveSeed output used for nothing else, because the counter block
// starts at zero.
func KeyedPerm(seed []byte, n int) ([]uint32, error) {
	if len(seed) != permSeedSize {
		return nil, fmt.Errorf("rng: permutation seed of %d bytes, want %d", len(seed), permSeedSize)
	}
	if n < 0 || uint64(n) > math.MaxUint32 {
		return nil, fmt.Errorf("rng: permutation length %d does not fit 32-bit indices", n)
	}
	ks, err := newKeystream(seed)
	if err != nil {
		return nil, err
	}
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := ks.below(uint32(i) + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p, nil
}

// keystream hands out an AES-CTR keystream as 32-bit words, 4 KiB of
// cipher output at a time.
type keystream struct {
	ctr  cipher.Stream
	buf  [4096]byte
	used int
}

func newKeystream(key []byte) (keystream, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return keystream{}, fmt.Errorf("rng: keying the permutation stream: %w", err)
	}
	var iv [aes.BlockSize]byte
	k := keystream{ctr: cipher.NewCTR(block, iv[:])}
	k.used = len(k.buf) // force refill on first use
	return k, nil
}

func (k *keystream) next32() uint32 {
	if k.used == len(k.buf) {
		// XORing the stream into zeros leaves the raw keystream.
		clear(k.buf[:])
		k.ctr.XORKeyStream(k.buf[:], k.buf[:])
		k.used = 0
	}
	v := binary.LittleEndian.Uint32(k.buf[k.used:])
	k.used += 4
	return v
}

// below returns a uniform value in [0, bound), bound > 0, by Lemire's
// multiply-shift: the high word of x·bound for a uniform 32-bit x. Each
// result has either ⌊2³²/bound⌋ or one more preimage; rejecting the x whose
// low word falls under 2³² mod bound removes the extra ones, so every
// result keeps exactly ⌊2³²/bound⌋ and the draw is exactly uniform. The
// threshold costs a division, so it is only computed when the low word is
// under bound — a necessary condition for being under 2³² mod bound.
func (k *keystream) below(bound uint32) uint32 {
	m := uint64(k.next32()) * uint64(bound)
	if uint32(m) < bound {
		threshold := -bound % bound // 2³² mod bound
		for uint32(m) < threshold {
			m = uint64(k.next32()) * uint64(bound)
		}
	}
	return uint32(m >> 32)
}
