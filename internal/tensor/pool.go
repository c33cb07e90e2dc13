package tensor

// pool.go: sync.Pool-backed reusable Vector buffers for the data plane.
// Every fragment-sized buffer on the upload path cycles through here:
// the party's fused transform gathers into one, the wire codec decodes
// into one on the aggregator, and the aggregator clears and returns each
// upload's buffer once it stops holding it (a rejected or retried upload
// at once, a stored one when retention evicts its round).

import "sync"

// A vecBox holds one pooled buffer. vecPool stores boxes, not slices: a
// slice put into a sync.Pool is boxed into a fresh header on every Put.
// GetVector empties the box it takes and parks it in boxPool, and
// PutVector fills a parked box, so a warm GetVector/PutVector cycle
// allocates nothing.
type vecBox struct{ v Vector }

var (
	vecPool sync.Pool // *vecBox holding a buffer
	boxPool sync.Pool // empty *vecBox
)

// GetVector returns a Vector of length n, reusing pooled backing storage
// when a large-enough buffer is available. The contents are NOT zeroed:
// callers must overwrite every element (the codec decode and the fused
// transform both do). Pass the buffer to PutVector when its lifetime
// ends; keeping it forever is also fine — the pool is best-effort.
//
//perf:hotpath
func GetVector(n int) Vector {
	if b, ok := vecPool.Get().(*vecBox); ok {
		v := b.v
		b.v = nil
		boxPool.Put(b)
		if cap(v) >= n {
			return v[:n]
		}
		// Too small for this request; drop it and let GC reclaim.
	}
	//lint:ignore allocfree pool-miss fallback: this make is the one allocation the pool exists to amortize
	return make(Vector, n)
}

// PutVector returns v's backing storage to the pool. The caller must not
// touch v afterwards: any retained alias would race with the next
// GetVector user. Nil and zero-capacity vectors are ignored.
//
//perf:hotpath
func PutVector(v Vector) {
	if cap(v) == 0 {
		return
	}
	b, ok := boxPool.Get().(*vecBox)
	if !ok {
		//lint:ignore allocfree box-pool miss: a box is taken by every GetVector hit and parked again, so a warm cycle reuses it
		b = new(vecBox)
	}
	b.v = v[:cap(v)]
	vecPool.Put(b)
}
