package deta_test

// One testing.B benchmark per paper artifact (Tables 1-3, Figures 5-7) plus
// ablation benches for the design choices DESIGN.md calls out. Each bench
// drives the same runner as cmd/deta-bench at FastScale, so
//
//	go test -bench=. -benchmem
//
// regenerates every result at laptop scale; raise the scale with
// cmd/deta-bench for paper-shaped runs.

import (
	"io"
	"testing"

	"deta/internal/core"
	"deta/internal/experiments"
	"deta/internal/rng"
	"deta/internal/tensor"
)

func benchScale() experiments.Scale {
	sc := experiments.FastScale()
	// Keep each bench iteration bounded.
	sc.AttackImages = 2
	sc.IGImages = 1
	sc.CIFARRounds = 2
	sc.AttackIters = 40
	sc.IGIters = 40
	sc.RVLRounds = 2
	sc.SamplesPerParty = 16
	sc.TestSamples = 16
	return sc
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, sc, experiments.FormatText, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1DLG regenerates Table 1 (DLG MSE buckets).
func BenchmarkTable1DLG(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2IDLG regenerates Table 2 (iDLG MSE buckets).
func BenchmarkTable2IDLG(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3IG regenerates Table 3 (IG cosine-distance buckets).
func BenchmarkTable3IG(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig3Reconstructions regenerates Figure 3 (DLG/iDLG examples).
func BenchmarkFig3Reconstructions(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4Reconstructions regenerates Figure 4 (IG examples).
func BenchmarkFig4Reconstructions(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5aMNISTIterAvg regenerates Figures 5a+5d.
func BenchmarkFig5aMNISTIterAvg(b *testing.B) { benchExperiment(b, "fig5a") }

// BenchmarkFig5bMNISTMedian regenerates Figures 5b+5e.
func BenchmarkFig5bMNISTMedian(b *testing.B) { benchExperiment(b, "fig5b") }

// BenchmarkFig5cMNISTPaillier regenerates Figures 5c+5f.
func BenchmarkFig5cMNISTPaillier(b *testing.B) { benchExperiment(b, "fig5c") }

// BenchmarkFig6CIFAR regenerates Figure 6 (4 vs 8 parties).
func BenchmarkFig6CIFAR(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7RVLCDIP regenerates Figure 7 (non-IID VGG-16 transfer).
func BenchmarkFig7RVLCDIP(b *testing.B) { benchExperiment(b, "fig7") }

// --- Ablation micro-benchmarks ------------------------------------------

// BenchmarkAblationTransform measures Trans() — partition + shuffle of one
// model update across three aggregators — per update size.
func BenchmarkAblationTransform(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16} {
		b.Run(sizeName(n), func(b *testing.B) {
			m, err := core.NewMapper(n, core.EqualProportions(3), []byte("bench"))
			if err != nil {
				b.Fatal(err)
			}
			sh, err := core.NewShuffler([]byte("bench-permutation-key-0123456789"))
			if err != nil {
				b.Fatal(err)
			}
			v := randomVector(n)
			roundID := []byte("bench-round")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(m, sh, v, roundID, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInverseTransform measures Trans^-1().
func BenchmarkAblationInverseTransform(b *testing.B) {
	const n = 1 << 16
	m, err := core.NewMapper(n, core.EqualProportions(3), []byte("bench"))
	if err != nil {
		b.Fatal(err)
	}
	sh, err := core.NewShuffler([]byte("bench-permutation-key-0123456789"))
	if err != nil {
		b.Fatal(err)
	}
	v := randomVector(n)
	roundID := []byte("bench-round")
	frags, err := core.Transform(m, sh, v, roundID, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.InverseTransform(m, sh, frags, roundID, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAuth measures the two-phase authentication cost table.
func BenchmarkAblationAuth(b *testing.B) { benchExperiment(b, "ablation-auth") }

// BenchmarkAblationAggregatorSweep measures the K-sweep ablation.
func BenchmarkAblationAggregatorSweep(b *testing.B) { benchExperiment(b, "ablation-aggs") }

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return "1M"
	case n >= 1<<16:
		return "64k"
	case n >= 1<<12:
		return "4k"
	}
	return "small"
}

func randomVector(n int) tensor.Vector {
	st := rng.NewStream([]byte("bench-values"), "v")
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = st.NormFloat64()
	}
	return v
}
