package agg

import (
	"math"
	"sort"
	"sync"

	"deta/internal/parallel"
	"deta/internal/tensor"
)

// order.go: the order-statistic kernels behind CoordinateMedian and
// TrimmedMean. Both are coordinate-wise, so instead of sorting one column
// of P values at a time they sort a tile of W coordinates at once:
//
//  1. copy coordinates [base, base+W) of each update into row k of a
//     party-major scratch (one sequential copy per party);
//  2. run one sorting network over the rows, each comparator a min/max
//     pass across the whole tile, after which row k holds every
//     coordinate's k-th smallest value;
//  3. reduce the rows the statistic needs.
//
// The result is bit-identical to gathering each column in party order and
// calling sort.Float64s on it. Values equal under == have equal bits except
// for NaNs and the two zeros, and only there can two sorters disagree:
// sort.Float64s puts NaNs first and leaves ±0 in pdqsort's order, which
// depends on the input order. So the copy marks every coordinate that
// holds a NaN or a zero, and a column with a NaN, or with zeros of both
// signs, is recomputed by the column path. Every other column has exactly
// one sorted order, which both sorters produce.

const (
	// medianGrain is the minimum number of coordinates per parallel chunk.
	// Each coordinate costs a P-element sort, so chunks amortize quickly.
	medianGrain = 128
	// tileFloats is the size of one tile: P rows of W coordinates, 16 KiB
	// as sort keys and 16 KiB as floats, so the network's passes stay in
	// the L1 data cache.
	tileFloats = 2048
	// maxTileWidth caps W for small P, where tileFloats/P would be wider
	// than a chunk usually is.
	maxTileWidth = 512
	// maxNetworkParties is the crossover: with more parties a call sorts
	// each column with sort.Float64s. The network's O(P log² P)
	// comparators each cost a pass over a tile that narrows as P grows;
	// measured, it is 2× faster than the column sort at P = 512 (W = 4)
	// and level with it between 768 and 1 024 (EXPERIMENTS.md,
	// "Order-statistic kernels"). It depends on P only, never on the
	// values.
	maxNetworkParties = 512
)

// orderStat is a statistic of a column's sorted values: its median, or
// the mean of the values left after dropping trim from each end.
type orderStat struct {
	median bool
	trim   int
}

// usedRows returns the first and last sorted rows reduce reads for p
// parties.
func (s orderStat) usedRows(p int) (first, last int) {
	if s.median {
		return (p - 1) / 2, p / 2
	}
	return s.trim, p - s.trim - 1
}

// reduce writes the statistic of w sorted columns to dst[:w]; row k of
// the columns starts at rows[k*stride]. Per column, the arithmetic and its
// order are the kernels' contract: median()'s formula for the median, an
// ascending sum from zero for the trimmed mean.
func (s orderStat) reduce(rows []float64, stride, w, p int, dst []float64) {
	dst = dst[:w]
	if s.median {
		m := rows[p/2*stride:][:w]
		if p%2 == 1 {
			copy(dst, m)
			return
		}
		below := rows[(p/2-1)*stride:][:w]
		for x := range dst {
			dst[x] = (below[x] + m[x]) / 2
		}
		return
	}
	clear(dst)
	for k := s.trim; k < p-s.trim; k++ {
		for x, v := range rows[k*stride:][:w] {
			dst[x] += v
		}
	}
	kept := float64(p - 2*s.trim)
	for x := range dst {
		dst[x] /= kept
	}
}

// column computes coordinate i alone: gather in party order into col,
// sort.Float64s, reduce into dst[0]. It is the path above the crossover
// and for the columns the network cannot order bit-exactly.
func (s orderStat) column(updates []tensor.Vector, i int, col, dst []float64) {
	for k, u := range updates {
		col[k] = u[i]
	}
	sort.Float64s(col)
	s.reduce(col, 1, 1, len(col), dst)
}

// aggregate applies s to every coordinate of the (validated) updates.
func (s orderStat) aggregate(updates []tensor.Vector, n int) tensor.Vector {
	p := len(updates)
	out := make(tensor.Vector, n)
	if p > maxNetworkParties {
		parallel.For(n, medianGrain, func(lo, hi int) {
			col := make([]float64, p)
			for i := lo; i < hi; i++ {
				s.column(updates, i, col, out[i:])
			}
		})
		return out
	}
	net := sortingNetwork(p)
	parallel.For(n, medianGrain, func(lo, hi int) {
		// Declared here and used only through non-escaping calls, the
		// scratch lives on the chunk's stack: nothing is allocated per
		// chunk.
		var t tile
		for base := lo; base < hi; base += net.width {
			t.apply(s, updates, base, min(net.width, hi-base), net, out)
		}
	})
	return out
}

// Marks set while copying a tile. A column needs the column path if it
// holds a NaN or both zeros.
const (
	markNaN uint8 = 1 << iota
	markPosZero
	markNegZero
)

// tile is one chunk's scratch. The network sorts keys rather than floats:
// keys order as their floats do on every column the network keeps, and
// the builtin min/max on integers is a compare and two conditional moves,
// without the NaN and signed-zero fix-ups of float min/max.
type tile struct {
	keys  [tileFloats]int64
	vals  [tileFloats]float64
	marks [maxTileWidth]uint8
	col   [maxNetworkParties]float64
}

// key maps a float's bits to an int64 in the float's order (-0 just below
// +0, NaNs beyond ±Inf). It is its own inverse.
func key(bits uint64) int64 {
	k := int64(bits)
	return k ^ (k>>63)&math.MaxInt64
}

// apply computes out[base:base+w] for the statistic s.
func (t *tile) apply(s orderStat, updates []tensor.Vector, base, w int, net *network, out tensor.Vector) {
	p, stride := len(updates), net.width
	marks := t.marks[:w]
	clear(marks)
	for k, u := range updates {
		row := t.keys[k*stride:][:w]
		for x, v := range u[base : base+w] {
			row[x] = key(math.Float64bits(v))
			if v != v || v == 0 {
				marks[x] |= mark(v)
			}
		}
	}
	net.sort(&t.keys, w)
	first, last := s.usedRows(p)
	for k := first; k <= last; k++ {
		vals := t.vals[k*stride:][:w]
		for x, kv := range t.keys[k*stride:][:w] {
			vals[x] = math.Float64frombits(uint64(key(uint64(kv))))
		}
	}
	s.reduce(t.vals[:], stride, w, p, out[base:])
	for x, m := range marks {
		if m&markNaN != 0 || m&(markPosZero|markNegZero) == markPosZero|markNegZero {
			s.column(updates, base+x, t.col[:p], out[base+x:])
		}
	}
}

// mark classifies a value that is a NaN or a zero.
func mark(v float64) uint8 {
	switch {
	case v != v:
		return markNaN
	case math.Signbit(v):
		return markNegZero
	default:
		return markPosZero
	}
}

// A network is Batcher's odd-even merge sorting network for P inputs,
// each comparator stored as the offsets of the two rows it orders.
type network struct {
	width       int // tile width W for this P
	comparators []comparator
}

type comparator struct{ lo, hi int }

var networks [maxNetworkParties + 1]struct {
	once sync.Once
	net  network
}

// sort sorts the first w columns of the rows in keys.
func (net *network) sort(keys *[tileFloats]int64, w int) {
	for _, c := range net.comparators {
		a := keys[c.lo:][:w]
		b := keys[c.hi:][:w]
		for x, ka := range a {
			kb := b[x]
			a[x] = min(ka, kb)
			b[x] = max(ka, kb)
		}
	}
}

// sortingNetwork returns the network for p parties, built on first use.
func sortingNetwork(p int) *network {
	e := &networks[p]
	e.once.Do(func() {
		width := min(maxTileWidth, tileFloats/p)
		e.net.width = width
		for _, c := range batcherPairs(p) {
			e.net.comparators = append(e.net.comparators, comparator{c[0] * width, c[1] * width})
		}
	})
	return &e.net
}

// batcherPairs lists the comparators of Batcher's odd-even merge sort for
// the next power of two n >= p, pruned to p: inputs p..n-1 stand for +Inf,
// so a comparator touching one leaves every value in place and is dropped.
func batcherPairs(p int) [][2]int {
	n := 1
	for n < p {
		n <<= 1
	}
	var pairs [][2]int
	for q := 1; q < n; q <<= 1 {
		for k := q; k >= 1; k >>= 1 {
			for j := k % q; j+k < n; j += 2 * k {
				for i := 0; i < k && i+j+k < p; i++ {
					if (i+j)/(2*q) == (i+j+k)/(2*q) {
						pairs = append(pairs, [2]int{i + j, i + j + k})
					}
				}
			}
		}
	}
	return pairs
}
