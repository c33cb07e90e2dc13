package agg

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"deta/internal/parallel"
	"deta/internal/rng"
	"deta/internal/tensor"
)

// Serial reference implementations of every parallelized kernel in this
// package. The production code must produce bit-identical output (==, not
// approximate): chunked parallelism never splits a coordinate's computation,
// so no floating-point accumulation order changes. serialMedian and
// serialTrimmedMean are also the column-at-a-time sort kernels the tiled
// order-statistic kernels replaced (order_test.go).

func serialMedian(updates []tensor.Vector) tensor.Vector {
	n := len(updates[0])
	out := make(tensor.Vector, n)
	col := make([]float64, len(updates))
	for i := 0; i < n; i++ {
		for k, u := range updates {
			col[k] = u[i]
		}
		sort.Float64s(col)
		m := len(col) / 2
		if len(col)%2 == 1 {
			out[i] = col[m]
		} else {
			out[i] = (col[m-1] + col[m]) / 2
		}
	}
	return out
}

func serialTrimmedMean(updates []tensor.Vector, trim int) tensor.Vector {
	n := len(updates[0])
	out := make(tensor.Vector, n)
	col := make([]float64, len(updates))
	for i := 0; i < n; i++ {
		for k, u := range updates {
			col[k] = u[i]
		}
		sort.Float64s(col)
		kept := col[trim : len(col)-trim]
		var s float64
		for _, v := range kept {
			s += v
		}
		out[i] = s / float64(len(kept))
	}
	return out
}

func serialKrumSelect(updates []tensor.Vector, f int) int {
	n := len(updates)
	d2 := make([][]float64, n)
	for i := range d2 {
		d2[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			var s float64
			for t := range updates[i] {
				diff := updates[i][t] - updates[j][t]
				s += diff * diff
			}
			d2[i][j], d2[j][i] = s, s
		}
	}
	best, bestScore := 0, 0.0
	for i := 0; i < n; i++ {
		ds := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				d := d2[i][j]
				if math.IsNaN(d) {
					d = math.Inf(1)
				}
				ds = append(ds, d)
			}
		}
		sort.Float64s(ds)
		var score float64
		for _, v := range ds[:n-f-2] {
			score += v
		}
		if i == 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// serialFLAME mirrors FLAMELite.Aggregate (with the corrected averaged
// even-n median) without any parallel.For calls.
func serialFLAME(updates []tensor.Vector) tensor.Vector {
	n := len(updates)
	if n < 3 {
		out, _ := IterativeAverage{}.Aggregate(updates, nil)
		return out
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d, _ := tensor.CosineDistance(updates[i], updates[j])
			dist[i][j], dist[j][i] = d, d
		}
	}
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		ds := make([]float64, 0, n-1)
		for j := 0; j < n; j++ {
			if j != i {
				ds = append(ds, dist[i][j])
			}
		}
		scores[i] = median(ds)
	}
	medScore := median(append([]float64(nil), scores...))
	devs := make([]float64, n)
	for i, s := range scores {
		devs[i] = math.Abs(s - medScore)
	}
	mad := median(devs)
	limit := medScore + 3*mad + 1e-12
	var admitted []tensor.Vector
	for i, s := range scores {
		if s <= limit {
			admitted = append(admitted, updates[i])
		}
	}
	if len(admitted) == 0 {
		admitted = updates
	}
	norms := make([]float64, len(admitted))
	for i, u := range admitted {
		norms[i] = tensor.Norm(u)
	}
	medNorm := median(append([]float64(nil), norms...))
	clipped := make([]tensor.Vector, len(admitted))
	for i, u := range admitted {
		if norms[i] > medNorm && norms[i] > 0 {
			clipped[i] = tensor.Scale(medNorm/norms[i], u)
		} else {
			clipped[i] = u
		}
	}
	out, _ := IterativeAverage{}.Aggregate(clipped, nil)
	return out
}

func randomUpdates(seed uint32, parties, n int) []tensor.Vector {
	s := rng.NewStream([]byte{byte(seed), byte(seed >> 8), byte(seed >> 16)}, "equiv")
	out := make([]tensor.Vector, parties)
	for p := range out {
		v := make(tensor.Vector, n)
		for i := range v {
			v[i] = s.NormFloat64()
		}
		out[p] = v
	}
	return out
}

func vecsExactlyEq(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Property: for random sizes and worker counts (including the serial
// workers=1 case and oversubscription far beyond GOMAXPROCS), every
// aggregation kernel is bit-identical to its serial reference.
func TestParallelKernelsMatchSerial(t *testing.T) {
	f := func(seed uint32, workersRaw, partiesRaw uint8, nRaw uint16) bool {
		workers := int(workersRaw%12) + 1
		parties := int(partiesRaw%8) + 5 // 5..12: enough for Krum f=1
		n := int(nRaw%600) + 1
		updates := randomUpdates(seed, parties, n)

		prev := parallel.SetWorkers(workers)
		defer parallel.SetWorkers(prev)

		got, err := (CoordinateMedian{}).Aggregate(updates, nil)
		if err != nil || !vecsExactlyEq(got, serialMedian(updates)) {
			t.Logf("median diverged (workers=%d parties=%d n=%d)", workers, parties, n)
			return false
		}
		got, err = (TrimmedMean{Trim: 1}).Aggregate(updates, nil)
		if err != nil || !vecsExactlyEq(got, serialTrimmedMean(updates, 1)) {
			t.Logf("trimmed mean diverged (workers=%d parties=%d n=%d)", workers, parties, n)
			return false
		}
		idx, err := (Krum{F: 1}).Select(updates)
		if err != nil || idx != serialKrumSelect(updates, 1) {
			t.Logf("krum selection diverged (workers=%d parties=%d n=%d)", workers, parties, n)
			return false
		}
		got, err = (FLAMELite{}).Aggregate(updates, nil)
		if err != nil || !vecsExactlyEq(got, serialFLAME(updates)) {
			t.Logf("flame diverged (workers=%d parties=%d n=%d)", workers, parties, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Grain boundaries: n right at, below, and far above the chunk grain, with
// n=1 and n=grain±1 edge cases.
func TestParallelKernelsGrainBoundaries(t *testing.T) {
	prev := parallel.SetWorkers(7)
	defer parallel.SetWorkers(prev)
	for _, n := range []int{1, 2, medianGrain - 1, medianGrain, medianGrain + 1, 4*medianGrain + 3} {
		updates := randomUpdates(uint32(n), 6, n)
		got, err := (CoordinateMedian{}).Aggregate(updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsExactlyEq(got, serialMedian(updates)) {
			t.Fatalf("n=%d: median diverged at grain boundary", n)
		}
		got, err = (TrimmedMean{Trim: 2}).Aggregate(updates, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !vecsExactlyEq(got, serialTrimmedMean(updates, 2)) {
			t.Fatalf("n=%d: trimmed mean diverged at grain boundary", n)
		}
	}
}

// Regression (satellite): MultiKrum ignores weights, like the other robust
// algorithms — even adversarially skewed weights must not change the output.
func TestMultiKrumIgnoresWeights(t *testing.T) {
	updates := []tensor.Vector{
		{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1.05, 0.95}, {100, 100},
	}
	unweighted, err := (MultiKrum{F: 1, M: 2}).Aggregate(updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A Byzantine party claiming enormous weight for the poisoned update.
	weighted, err := (MultiKrum{F: 1, M: 2}).Aggregate(updates, []float64{1, 1, 1, 1, 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if !vecsExactlyEq(unweighted, weighted) {
		t.Fatalf("weights changed MultiKrum output: %v vs %v", unweighted, weighted)
	}
	// Even a mismatched weight count is ignored rather than rejected —
	// documented behavior, asserted so a change shows up here.
	short, err := (MultiKrum{F: 1, M: 2}).Aggregate(updates, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if !vecsExactlyEq(unweighted, short) {
		t.Fatal("mismatched weights changed MultiKrum output")
	}
}

// Regression (satellite): FLAMELite's overall median score must average the
// two middle values for even n (the median() helper), not take the upper
// middle. For this crafted 4-update set the upper-median rule admits the
// outlier update while the correct averaged median drops it.
func TestFLAMEEvenNMedianScore(t *testing.T) {
	updates := []tensor.Vector{
		{-1.5, -3.5, -0.5},
		{-2.5, -0.5, 1.5},
		{3, -3, 3},
		{3.5, 2, -1},
	}
	got, err := (FLAMELite{}).Aggregate(updates, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := serialFLAME(updates) // averaged even-n median semantics
	if !vecsExactlyEq(got, want) {
		t.Fatalf("FLAME even-n output %v, want %v", got, want)
	}
	// The old upper-median rule admitted all four updates; the corrected
	// band drops the last one. Distinguish the two by recomputing the
	// admitted-equals-all outcome and ensuring we did NOT produce it.
	norms := make([]float64, len(updates))
	for i, u := range updates {
		norms[i] = tensor.Norm(u)
	}
	medNorm := median(append([]float64(nil), norms...))
	clippedAll := make([]tensor.Vector, len(updates))
	for i, u := range updates {
		if norms[i] > medNorm && norms[i] > 0 {
			clippedAll[i] = tensor.Scale(medNorm/norms[i], u)
		} else {
			clippedAll[i] = u
		}
	}
	oldOut, _ := IterativeAverage{}.Aggregate(clippedAll, nil)
	if vecsExactlyEq(got, oldOut) {
		t.Fatalf("FLAME still admits the outlier (upper-median regression): %v", got)
	}
}
