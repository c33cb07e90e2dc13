package core

import (
	"testing"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/tensor"
)

// benchUploadNode builds a provisioned aggregator with the given journal
// mode: "none" (in-memory only), "nosync" (WAL without per-record fsync),
// or "sync" (full fsync-on-commit, the -state-dir default).
func benchUploadNode(b *testing.B, mode string) *AggregatorNode {
	b.Helper()
	cvm := provisionCVM(b, testAP(b), "agg-bench")
	var node *AggregatorNode
	var err error
	switch mode {
	case "none":
		node, err = NewAggregatorNode("agg-bench", agg.IterativeAverage{}, cvm)
	case "nosync":
		node, _, err = RecoverAggregatorNode("agg-bench", agg.IterativeAverage{}, cvm, b.TempDir(), journal.Options{NoSync: true})
	case "sync":
		node, _, err = RecoverAggregatorNode("agg-bench", agg.IterativeAverage{}, cvm, b.TempDir(), journal.Options{})
	default:
		b.Fatalf("unknown mode %q", mode)
	}
	if err != nil {
		b.Fatal(err)
	}
	node.Register("P1")
	return node
}

func benchUpload(b *testing.B, mode string) {
	node := benchUploadNode(b, mode)
	defer node.CloseJournal()
	frag := make(tensor.Vector, 4096)
	for i := range frag {
		frag[i] = float64(i) * 0.001
	}
	b.SetBytes(int64(len(frag) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh round per iteration: re-uploading the same round would
		// hit the idempotent fast path instead of the commit path.
		if err := node.Upload(i+1, "P1", frag, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpload quantifies the durability tax on the hot path: the same
// 4096-parameter fragment upload with no journal, a no-fsync journal, and
// the fsync-on-commit journal. EXPERIMENTS.md records the numbers.
func BenchmarkUpload(b *testing.B) {
	b.Run("no-journal", func(b *testing.B) { benchUpload(b, "none") })
	b.Run("journal-nosync", func(b *testing.B) { benchUpload(b, "nosync") })
	b.Run("journal-fsync", func(b *testing.B) { benchUpload(b, "sync") })
}
