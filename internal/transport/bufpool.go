package transport

// bufpool.go: the size-class pools for frame bodies above bodySeed. A
// steady stream of fragment-sized frames (every upload and download of a
// large model) reuses the same few buffers instead of allocating one per
// frame on each end of the connection.

import (
	"math/bits"
	"sync"
)

// The classes above bodySeed come two to an octave, 3·2^(k-2) and 2^k
// bytes, from 96 KiB up to MaxFrame: a body is held in at most 1.5 times
// its size. bodyPool is the class below them.
const (
	seedShift  = 16                   // bodySeed == 1<<seedShift
	numClasses = 2 * (28 - seedShift) // MaxFrame == 1<<28
)

// A bigBody is a pooled buffer of a class above bodySeed. The class pools
// store the holder itself, and the holder travels with its buffer
// (frame.big, pendingCall.big), so neither taking a buffer nor returning
// one allocates.
type bigBody struct{ b []byte }

var classPools [numClasses]sync.Pool

// classOf returns the smallest class whose buffers hold n > bodySeed bytes.
func classOf(n int) int {
	k := bits.Len(uint(n - 1)) // 2^(k-1) < n <= 2^k
	c := 2 * (k - seedShift - 1)
	if n > 3<<(k-2) {
		c++
	}
	return c
}

// classSize is the capacity of class c's buffers.
func classSize(c int) int {
	k := c/2 + seedShift + 1
	if c%2 == 0 {
		return 3 << (k - 2)
	}
	return 1 << k
}

// pooledBig returns a pooled buffer of class(n), or nil when the pool has
// none: it never allocates, which is what lets readBody take it on a
// length prefix it has not yet seen the bytes for.
//
//perf:hotpath
func pooledBig(n int) *bigBody {
	h, _ := classPools[classOf(n)].Get().(*bigBody)
	return h
}

// getBig returns a buffer of class(n), from its pool or fresh.
//
//perf:hotpath
func getBig(n int) *bigBody {
	if h := pooledBig(n); h != nil {
		return h
	}
	//lint:ignore allocfree pool-miss fallback: this make is the one allocation the class pools exist to amortize
	return &bigBody{b: make([]byte, classSize(classOf(n)))}
}

// put returns h to its class pool; nil is ignored. The caller must not
// touch h or its buffer afterwards.
//
//perf:hotpath
func (h *bigBody) put() {
	if h == nil {
		return
	}
	classPools[classOf(cap(h.b))].Put(h)
}
