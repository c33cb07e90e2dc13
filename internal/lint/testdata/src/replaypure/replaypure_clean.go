// Unreachable functions may use the clock, the global rand, and
// goroutines freely: replaypure scopes those checks to the
// replay-reachable set. Map order is the exception — the fixture poses as
// internal/core, one of the packages whose outputs must be
// bit-deterministic, so the fold below is flagged without provenance.
package core

import (
	"math/rand"
	"time"
)

func notReachable(n *node) {
	_ = time.Now()
	_ = time.Since(time.Time{})
	n.sum += rand.Float64()
	go background(n)
	for _, v := range n.vals {
		n.sum += v // want replaypure
	}
}
