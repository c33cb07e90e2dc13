// Package tensor provides the flat-vector math substrate used throughout
// the DeTA reproduction. Model updates in federated learning are exchanged
// as flattened parameter vectors; every aggregation algorithm in the paper
// is coordinate-wise over such vectors, so this package centers on a simple
// []float64-backed Vector type plus shape bookkeeping for reassembling
// layered models.
package tensor

import (
	"errors"
	"fmt"
	"math"

	"deta/internal/parallel"
)

// Vector is a flat slice of float64 parameters. It is the unit of exchange
// between parties and aggregators. Functions in this package treat Vectors
// as values: unless documented otherwise they allocate fresh storage.
type Vector []float64

// ErrLength is returned when two vectors that must match in length do not.
var ErrLength = errors.New("tensor: vector length mismatch")

// New returns a zero vector of length n.
func New(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns a + b.
func Add(a, b Vector) (Vector, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out, nil
}

// Sub returns a - b.
func Sub(a, b Vector) (Vector, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	out := make(Vector, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out, nil
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b Vector) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	for i := range a {
		a[i] += b[i]
	}
	return nil
}

// AXPY computes a += alpha*b in place.
func AXPY(alpha float64, a, b Vector) error {
	if len(a) != len(b) {
		return fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	for i := range a {
		a[i] += alpha * b[i]
	}
	return nil
}

// Scale returns alpha * v as a new vector.
func Scale(alpha float64, v Vector) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = alpha * v[i]
	}
	return out
}

// ScaleInPlace multiplies v by alpha in place and returns v.
func ScaleInPlace(alpha float64, v Vector) Vector {
	for i := range v {
		v[i] *= alpha
	}
	return v
}

// Dot returns the inner product of a and b.
func Dot(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s, nil
}

// Norm returns the L2 norm of v.
func Norm(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormSq returns the squared L2 norm of v.
func NormSq(v Vector) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return s
}

// L2Distance returns ||a-b||_2.
func L2Distance(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// CosineDistance returns 1 - <a,b>/(||a|| ||b||), the cost metric of the
// Inverting Gradients attack. If either vector is all-zero the distance is
// defined as 1 (maximally dissimilar).
func CosineDistance(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 1, nil
	}
	return 1 - dot/(math.Sqrt(na)*math.Sqrt(nb)), nil
}

// MSE returns the mean squared error between a and b — the reconstruction
// fidelity metric used for the DLG and iDLG evaluations (Tables 1 and 2).
func MSE(a, b Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLength, len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s / float64(len(a)), nil
}

// Mean returns the arithmetic mean of v (0 for the empty vector).
func Mean(v Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// Variance returns the population variance of v.
func Variance(v Vector) float64 {
	if len(v) == 0 {
		return 0
	}
	m := Mean(v)
	var s float64
	for _, x := range v {
		d := x - m
		s += d * d
	}
	return s / float64(len(v))
}

// Clip limits every element of v to [-c, c] in place and returns v.
func Clip(v Vector, c float64) Vector {
	for i, x := range v {
		if x > c {
			v[i] = c
		} else if x < -c {
			v[i] = -c
		}
	}
	return v
}

// ClampRange limits every element of v to [lo, hi] in place and returns v.
func ClampRange(v Vector, lo, hi float64) Vector {
	for i, x := range v {
		if x < lo {
			v[i] = lo
		} else if x > hi {
			v[i] = hi
		}
	}
	return v
}

// Sign returns the elementwise sign of v as a new vector.
func Sign(v Vector) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		switch {
		case x > 0:
			out[i] = 1
		case x < 0:
			out[i] = -1
		}
	}
	return out
}

// WeightedSum returns sum_i w[i]*vs[i]. All vectors must share a length and
// len(w) must equal len(vs). Coordinates are accumulated in parallel chunks;
// within each coordinate the vectors are summed in input order, so the
// result is bit-identical to the serial loop.
func WeightedSum(vs []Vector, w []float64) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("tensor: weighted sum of zero vectors")
	}
	if len(vs) != len(w) {
		return nil, fmt.Errorf("tensor: %d vectors but %d weights", len(vs), len(w))
	}
	n := len(vs[0])
	for k, v := range vs {
		if len(v) != n {
			return nil, fmt.Errorf("%w: vector %d has length %d, want %d", ErrLength, k, len(v), n)
		}
	}
	out := make(Vector, n)
	parallel.For(n, parallel.DefaultGrain, func(lo, hi int) {
		for k, v := range vs {
			wk := w[k]
			for i := lo; i < hi; i++ {
				out[i] += wk * v[i]
			}
		}
	})
	return out, nil
}

// IsFinite reports whether every element of v is finite (no NaN/Inf).
func IsFinite(v Vector) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
