// Package core poses as deta/internal/core for replaypure's map-order
// checks: in a deterministic package, map-order-dependent accumulation
// and journal writes are findings even though no replay root reaches
// them; the collect-then-sort idiom and per-iteration state are not.
package core

import (
	"sort"

	"deta/internal/journal"
)

// keysUnsorted leaks map iteration order into the returned slice.
func keysUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want replaypure
	}
	return out
}

// keysSorted uses the blessed collect-then-sort idiom; no finding.
func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sumFloats makes the sum's bits depend on visit order.
func sumFloats(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want replaypure
	}
	return sum
}

// sumInts is associative, so visit order cannot change the result.
func sumInts(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

// perIteration accumulators are born inside the loop body; no finding.
func perIteration(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		for _, v := range vs {
			local = append(local, v)
		}
		n += len(local)
	}
	return n
}

type walNode struct {
	j *journal.Journal
}

func (n *walNode) appendLocked(typ uint8, data []byte) {}

// flushAll writes WAL records in map order, so replay order differs.
func (n *walNode) flushAll(m map[string][]byte) {
	for _, v := range m {
		n.j.Append(1, v) // want replaypure
	}
}

// drain reaches the WAL through the aggregator helper, matched by name.
func (n *walNode) drain(m map[int][]byte) {
	for r, b := range m {
		n.appendLocked(uint8(r), b) // want replaypure
	}
}
