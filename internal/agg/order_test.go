package agg

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"deta/internal/parallel"
	"deta/internal/rng"
	"deta/internal/tensor"
)

// The tiled order-statistic kernels must equal, bit for bit, the
// column-at-a-time sort kernels they replaced (serialMedian and
// serialTrimmedMean in parallel_equiv_test.go) on every input, including
// the ones where a sorting network and sort.Float64s order values
// differently: NaNs of any payload and mixed signed zeros.

// specials are the values a column draws besides random normals: NaNs with
// different payloads and signs, both infinities, both zeros, subnormals,
// extremes, and small integers that make ties.
var specials = []float64{
	math.NaN(),
	math.Float64frombits(0x7ff0000000000001), // signalling NaN payload
	math.Float64frombits(0xfff8000000000000), // NaN with the sign bit set
	math.Float64frombits(0xfff00000deadbeef),
	math.Inf(1), math.Inf(-1),
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1, -1, 2, 2, 0.5,
}

// orderInputs builds p updates of length n whose columns cycle through
// the shapes that matter: distinct normals, ties, every special mixed in,
// zeros of one sign only, and a NaN or both zeros in an otherwise clean
// column.
func orderInputs(seed string, p, n int) []tensor.Vector {
	s := rng.NewStream([]byte("order-statistics"), seed)
	updates := make([]tensor.Vector, p)
	for k := range updates {
		updates[k] = make(tensor.Vector, n)
	}
	for i := 0; i < n; i++ {
		kind := i % 6
		for _, u := range updates {
			v := s.NormFloat64()
			switch kind {
			case 1: // ties
				v = float64(int(v * 2))
			case 2: // any special
				v = specials[s.Intn(len(specials))]
			case 3: // zeros of one sign, ties and infinities: network-exact
				z := 0.0
				if i/6%2 == 1 {
					z = math.Copysign(0, -1)
				}
				v = []float64{z, z, 1, -1, math.Inf(1), math.Inf(-1), v}[s.Intn(7)]
			case 4: // about one NaN per column, at random parties
				if s.Intn(p) == 0 {
					v = specials[s.Intn(4)]
				}
			case 5: // mixed zeros
				v = []float64{0, math.Copysign(0, -1), v}[s.Intn(3)]
			}
			u[i] = v
		}
	}
	return updates
}

func sameBits(t *testing.T, what string, got, want tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: coordinate %d = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// orderLengths returns lengths that straddle p's tile width and the
// parallel grain.
func orderLengths(p int) []int {
	w := medianGrain
	if p <= maxNetworkParties {
		w = sortingNetwork(p).width
	}
	seen := map[int]bool{}
	var out []int
	for _, n := range []int{1, w - 1, w, w + 1, medianGrain - 1, medianGrain + 1, 2*medianGrain + w + 3} {
		if n > 0 && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out
}

func TestOrderStatisticsMatchSortKernel(t *testing.T) {
	parties := []int{maxNetworkParties, maxNetworkParties + 1}
	for p := 1; p <= 65; p++ {
		parties = append(parties, p)
	}
	for _, workers := range []int{1, 4} {
		prev := parallel.SetWorkers(workers)
		for _, p := range parties {
			lengths := orderLengths(p)
			for li, n := range lengths {
				updates := orderInputs(fmt.Sprintf("p%d-n%d", p, n), p, n)
				got, err := CoordinateMedian{}.Aggregate(updates, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("median workers=%d p=%d n=%d", workers, p, n), got, serialMedian(updates))
				// Every valid trim up to 65 parties on the longest length
				// with several chunks, the smallest and largest elsewhere.
				every := p <= 65 && li == len(lengths)-1 && workers > 1
				for trim := 0; 2*trim < p; trim++ {
					if !every && trim > 1 && trim != (p-1)/2 {
						continue
					}
					got, err := TrimmedMean{Trim: trim}.Aggregate(updates, nil)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, fmt.Sprintf("trimmed mean %d workers=%d p=%d n=%d", trim, workers, p, n),
						got, serialTrimmedMean(updates, trim))
				}
			}
		}
		parallel.SetWorkers(prev)
	}
}

// TestSortingNetworksSort checks every cached network on its own: by the
// 0-1 principle a comparator network sorts all inputs if it sorts every
// 0-1 sequence, which is checked exhaustively up to 16 inputs and on
// random 0-1 and integer sequences above (fewer past 64, where the
// comparators run into the thousands).
func TestSortingNetworksSort(t *testing.T) {
	s := rng.NewStream([]byte("order-statistics"), "networks")
	for p := 1; p <= maxNetworkParties; p++ {
		pairs := batcherPairs(p)
		net := sortingNetwork(p)
		if len(net.comparators) != len(pairs) {
			t.Fatalf("p=%d: cached network has %d comparators, want %d", p, len(net.comparators), len(pairs))
		}
		trials := 1 << p
		switch {
		case p > 64:
			trials = 8
		case p > 16:
			trials = 256
		}
		xs := make([]int, p)
		for trial := 0; trial < trials; trial++ {
			for i := range xs {
				switch {
				case p <= 16:
					xs[i] = trial >> i & 1
				case trial%2 == 0:
					xs[i] = s.Intn(2)
				default:
					xs[i] = s.Intn(p)
				}
			}
			for _, c := range pairs {
				if c[0] >= c[1] || c[1] >= p {
					t.Fatalf("p=%d: comparator %v out of order or range", p, c)
				}
				xs[c[0]], xs[c[1]] = min(xs[c[0]], xs[c[1]]), max(xs[c[0]], xs[c[1]])
			}
			if !sort.IntsAreSorted(xs) {
				t.Fatalf("p=%d: network leaves %v unsorted", p, xs)
			}
		}
	}
}

// A Byzantine party that sends NaN or ±Inf must not win Krum: a NaN
// distance used to sort first, count as everyone's nearest neighbour and
// make every score NaN, so Krum returned update 0 whatever the data — the
// attacker itself when it came first — and MultiKrum averaged it in.
func TestKrumRejectsNonFiniteUpdate(t *testing.T) {
	honest := []tensor.Vector{
		{1, 1, 1}, {1.1, 1, 1}, {0.9, 1, 1}, {1, 1.1, 1}, {1, 0.9, 1},
	}
	const f = 1
	want, err := Krum{F: f}.Select(honest)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for pos := 0; pos <= len(honest); pos++ {
			attacker := tensor.Vector{1, bad, 1}
			updates := append(append(append([]tensor.Vector{}, honest[:pos]...), attacker), honest[pos:]...)
			idx, err := Krum{F: f}.Select(updates)
			if err != nil {
				t.Fatal(err)
			}
			if idx == pos {
				t.Fatalf("attacker %v at %d: Krum selected it", bad, pos)
			}
			if got := updates[idx]; !vecsExactlyEq(got, honest[want]) {
				t.Fatalf("attacker %v at %d: Krum chose %v, without the attacker %v", bad, pos, got, honest[want])
			}
			multi, err := MultiKrum{F: f, M: 3}.Aggregate(updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			flame, err := FLAMELite{}.Aggregate(updates, nil)
			if err != nil {
				t.Fatal(err)
			}
			for name, out := range map[string]tensor.Vector{"MultiKrum": multi, "FLAMELite": flame} {
				for _, v := range out {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("attacker %v at %d: %s output %v", bad, pos, name, out)
					}
				}
			}
		}
	}
}

// FuzzOrderStatistics holds the tiled kernels to the sort kernels on
// arbitrary inputs: data[0] picks P (1…192, or 481…544 around the
// crossover), data[1] the trim, and every further byte one value — a
// special value, a small integer (ties), or with the next eight bytes raw
// float64 bits.
func FuzzOrderStatistics(f *testing.F) {
	f.Add([]byte{7, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{31, 0, 6, 7, 6, 7, 6, 7, 6, 7, 200, 201, 202, 203})
	f.Add([]byte{2, 0, 0, 3, 5, 6, 7, 6})
	f.Add([]byte{255, 3, 255, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 6, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		p := 1 + int(data[0])
		if p > 192 {
			p += maxNetworkParties - 224
		}
		trim := int(data[1]) % ((p-1)/2 + 1)
		var vals []float64
		for rest := data[2:]; len(rest) > 0; {
			b := rest[0]
			rest = rest[1:]
			switch {
			case int(b) < len(specials):
				vals = append(vals, specials[b])
			case b == 255 && len(rest) >= 8:
				var bits uint64
				for _, c := range rest[:8] {
					bits = bits<<8 | uint64(c)
				}
				vals = append(vals, math.Float64frombits(bits))
				rest = rest[8:]
			default:
				vals = append(vals, float64(int(b)%16-8))
			}
		}
		if len(vals) == 0 {
			vals = []float64{0}
		}
		n := max(1, len(vals)/p)
		updates := make([]tensor.Vector, p)
		for k := range updates {
			updates[k] = make(tensor.Vector, n)
			for i := range updates[k] {
				updates[k][i] = vals[(k*n+i)%len(vals)]
			}
		}
		got, err := CoordinateMedian{}.Aggregate(updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "median", got, serialMedian(updates))
		got, err = TrimmedMean{Trim: trim}.Aggregate(updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("trimmed mean %d", trim), got, serialTrimmedMean(updates, trim))
	})
}
