package transport

import "testing"

// The classes cover every body above bodySeed up to MaxFrame, in
// ascending order, each the smallest that holds its sizes and at most 1.5
// times the smallest of them.
func TestBodyClasses(t *testing.T) {
	if got := classSize(0); got <= bodySeed {
		t.Fatalf("class 0 holds %d bytes, not more than the %d-byte seed", got, bodySeed)
	}
	if got := classSize(numClasses - 1); got != MaxFrame {
		t.Fatalf("the last class holds %d bytes, want MaxFrame %d", got, MaxFrame)
	}
	lo := bodySeed + 1 // the smallest size class c must hold
	for c := 0; c < numClasses; c++ {
		size := classSize(c)
		for _, n := range []int{lo, lo + 1, size - 1, size} {
			if got := classOf(n); got != c {
				t.Fatalf("classOf(%d) = %d, want %d (%d bytes)", n, got, c, size)
			}
		}
		if 2*size > 3*lo {
			t.Fatalf("class %d holds %d bytes, over 1.5 times the %d it starts at", c, size, lo)
		}
		lo = size + 1
	}
}

// A class buffer goes back to the pool it came from, holder and all.
func TestBigBodyRoundTrip(t *testing.T) {
	if raceBuild {
		t.Skip("the race detector's sync.Pool drops puts at random")
	}
	h := getBig(700_000)
	if cap(h.b) != classSize(classOf(700_000)) {
		t.Fatalf("class buffer of %d bytes for class %d", cap(h.b), classOf(700_000))
	}
	h.put()
	if allocs := testing.AllocsPerRun(100, func() { getBig(700_000).put() }); allocs != 0 {
		t.Fatalf("taking and returning a pooled class buffer made %.1f allocations", allocs)
	}
}
