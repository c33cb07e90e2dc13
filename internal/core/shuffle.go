package core

import (
	"fmt"
	"strconv"
	"sync"

	"deta/internal/parallel"
	"deta/internal/rng"
	"deta/internal/tensor"
)

// Shuffler implements the dynamic parameter-level shuffling of §4.2. Each
// partitioned fragment is permuted with a permutation seeded by the
// combination of the broker-held permutation key and the per-round training
// identifier, plus the partition index for domain separation. The
// permutation therefore changes every round but is identical across
// parties, and unrecoverable without the key.
type Shuffler struct {
	permKey []byte

	// Permutation cache: a party needs the identical permutation twice per
	// round (Transform on upload, InverseTransform on download), and a
	// download of round r can still be in flight when round r+1 is
	// transformed, so the permutations of the two most recently seen round
	// IDs are kept and nothing older: round IDs are fresh every round, so
	// an older entry would never be hit again, only pinned. Cached
	// permutations are shared read-only slices — holders must never write
	// through them — which is also why an evicted one is left to the
	// collector and not recycled: a slow holder may still be reading it.
	mu     sync.Mutex
	rounds [2]roundPerms // most recently seen round first
}

// roundPerms holds one round's derived permutations, at most one per
// (partition, length) pair: K entries for a K-aggregator job.
type roundPerms struct {
	round string
	perms []cachedPerm
}

// cachedPerm is keyed by the fragment length as well as the partition, so
// a caller shuffling a different-sized vector under the same (round,
// partition) can never be served a mismatched permutation.
type cachedPerm struct {
	partition int
	perm      []uint32
}

func (r *roundPerms) find(partition, n int) []uint32 {
	for _, c := range r.perms {
		if c.partition == partition && len(c.perm) == n {
			return c.perm
		}
	}
	return nil
}

// NewShuffler wraps the shared permutation key dispatched by the key
// broker.
func NewShuffler(permKey []byte) (*Shuffler, error) {
	if len(permKey) < 16 {
		return nil, fmt.Errorf("core: permutation key of %d bytes is below the 16-byte minimum", len(permKey))
	}
	return &Shuffler{permKey: append([]byte(nil), permKey...)}, nil
}

// Fingerprint identifies the permutation key without revealing it, so
// parties can compare the keys they were issued across their logs.
func (s *Shuffler) Fingerprint() string { return rng.Fingerprint(s.permKey) }

// lookup returns the cached permutation and the cache slot of roundID, or
// nil and -1 where there is none. s.mu must be held.
func (s *Shuffler) lookup(roundID []byte, partition, n int) ([]uint32, int) {
	for i := range s.rounds {
		if r := &s.rounds[i]; r.round == string(roundID) {
			return r.find(partition, n), i
		}
	}
	return nil, -1
}

// perm derives the round- and partition-specific permutation of length n,
// serving repeats from the cache. The returned slice is shared: callers
// must treat it as read-only.
func (s *Shuffler) perm(roundID []byte, partition, n int) ([]uint32, error) {
	s.mu.Lock()
	p, _ := s.lookup(roundID, partition, n)
	s.mu.Unlock()
	if p != nil || n == 0 { // an empty fragment has nothing to permute
		return p, nil
	}
	// Derive outside the lock; a concurrent duplicate derivation is
	// harmless (both produce the identical permutation) and cheaper than
	// serializing every partition's derivation behind one mutex.
	var ctx [32]byte
	partitionCtx := strconv.AppendInt(append(ctx[:0], "partition-"...), int64(partition), 10)
	seed := rng.DeriveSeed(s.permKey, []byte("param-shuffle"), roundID, partitionCtx)
	p, err := rng.KeyedPerm(seed, n)
	if err != nil {
		return nil, fmt.Errorf("core: deriving the round permutation: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cached, slot := s.lookup(roundID, partition, n)
	if cached != nil {
		return cached, nil
	}
	if slot < 0 {
		s.rounds[1] = s.rounds[0]
		s.rounds[0] = roundPerms{round: string(roundID)}
		slot = 0
	}
	s.rounds[slot].perms = append(s.rounds[slot].perms, cachedPerm{partition: partition, perm: p})
	return p, nil
}

// Shuffle permutes a fragment for upload: out[i] = frag[perm[i]].
func (s *Shuffler) Shuffle(frag tensor.Vector, roundID []byte, partition int) (tensor.Vector, error) {
	p, err := s.perm(roundID, partition, len(frag))
	if err != nil {
		return nil, err
	}
	out := make(tensor.Vector, len(frag))
	for i, src := range p {
		out[i] = frag[src]
	}
	return out, nil
}

// Unshuffle restores a downloaded (aggregated) fragment to its original
// order, inverting Shuffle for the same round and partition.
func (s *Shuffler) Unshuffle(frag tensor.Vector, roundID []byte, partition int) (tensor.Vector, error) {
	p, err := s.perm(roundID, partition, len(frag))
	if err != nil {
		return nil, err
	}
	out := make(tensor.Vector, len(frag))
	for i, src := range p {
		out[src] = frag[i]
	}
	return out, nil
}

// Transform is the full party-side Trans() of Figure 1: partition the local
// update with the mapper, then shuffle each fragment for the round.
// Shuffling can be disabled (partition-only mode) to reproduce the paper's
// first attack configuration.
//
// The shuffled path fuses both steps into a single gather per fragment:
// shuffling a partition-gathered fragment composes to
//
//	frag[i] = update[idxs[p[i]]]
//
// so no intermediate partition buffer is built, and fragments land in
// pooled tensor buffers (hand them to tensor.PutVector after upload). The
// result is bit-identical to Partition followed by Shuffle.
//
//perf:hotpath
func Transform(m *Mapper, s *Shuffler, update tensor.Vector, roundID []byte, shuffle bool) ([]tensor.Vector, error) {
	if !shuffle {
		//lint:ignore allocfree partition-only mode builds fresh fragment buffers by contract
		return m.Partition(update)
	}
	if len(update) != m.n {
		return nil, fmt.Errorf("core: update length %d, mapper built for %d", len(update), m.n)
	}
	if s == nil {
		return nil, fmt.Errorf("core: shuffle requested without a shuffler")
	}
	// Each fragment's permutation is derived and applied independently
	// (domain-separated by partition index), so fragments build
	// concurrently.
	//
	//lint:ignore allocfree one slice-header array per call; the fragment payloads come from the pool
	out := make([]tensor.Vector, len(m.parts))
	err := parallel.ForErr(len(m.parts), 1, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			idxs := m.parts[j]
			//lint:ignore allocfree permutation derivation is cached per (round, partition)
			p, err := s.perm(roundID, j, len(idxs))
			if err != nil {
				return err
			}
			frag := tensor.GetVector(len(idxs))
			for i, src := range p {
				frag[i] = update[idxs[src]]
			}
			out[j] = frag
		}
		return nil
	})
	if err != nil {
		// Fragments built before the failure go back to the pool.
		for _, frag := range out {
			if frag != nil {
				tensor.PutVector(frag)
			}
		}
		return nil, err
	}
	return out, nil
}

// InverseTransform is Trans^-1: reverse-shuffle each aggregated fragment
// and merge them back into a full model update.
//
// The shuffled path fuses unshuffle and merge into a single scatter:
//
//	out[idxs[p[i]]] = frag[i]
//
// with no intermediate unshuffled fragment. Partitions write disjoint
// index sets (Mapper.Validate invariant), so the scatters run
// concurrently; the result is bit-identical to Unshuffle followed by
// Merge.
//
//perf:hotpath
func InverseTransform(m *Mapper, s *Shuffler, frags []tensor.Vector, roundID []byte, shuffle bool) (tensor.Vector, error) {
	if !shuffle {
		//lint:ignore allocfree partition-only mode merges into a fresh model buffer by contract
		return m.Merge(frags)
	}
	if s == nil {
		return nil, fmt.Errorf("core: unshuffle requested without a shuffler")
	}
	if len(frags) != len(m.parts) {
		return nil, fmt.Errorf("core: %d fragments, mapper has %d partitions", len(frags), len(m.parts))
	}
	for j, idxs := range m.parts {
		if len(frags[j]) != len(idxs) {
			return nil, fmt.Errorf("core: fragment %d has %d values, want %d", j, len(frags[j]), len(idxs))
		}
	}
	//lint:ignore allocfree the merged model is the result and outlives any pool window
	out := make(tensor.Vector, m.n)
	err := parallel.ForErr(len(m.parts), 1, func(lo, hi int) error {
		for j := lo; j < hi; j++ {
			idxs := m.parts[j]
			//lint:ignore allocfree permutation derivation is cached per (round, partition)
			p, err := s.perm(roundID, j, len(idxs))
			if err != nil {
				return err
			}
			for i, v := range frags[j] {
				out[idxs[p[i]]] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
