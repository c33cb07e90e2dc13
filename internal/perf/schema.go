// Package perf tracks the repository's performance trajectory: it runs a
// curated benchmark suite over the hot paths (transport, journal, agg
// kernels, paillier, core transforms), records the results in versioned
// per-area baseline files (BENCH_<area>.json, checked into the repo
// root), and compares fresh runs against those baselines with
// noise-tolerant rules so a regression on any kernel fails loudly instead
// of landing invisibly in EXPERIMENTS.md prose.
//
// cmd/deta-bench -perf drives the suite programmatically via
// testing.Benchmark (best-of-N runs, bounded benchtime). The BenchmarkPerfSuite
// wrapper in each area package runs the same benches under
// `go test -bench`, with the stable names the baselines record.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Result is one benchmark measurement with the schema the baselines pin:
// bench name, ns/op, allocs/op, B/op, and the iteration count behind the
// numbers.
type Result struct {
	Bench       string  `json:"bench"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int64   `json:"iterations"`
	// Ignore exempts this bench from regression gating (the perf
	// equivalent of //lint:ignore): the number is still tracked and
	// reported, but never fails the gate. Used for benches dominated by
	// environment effects (e.g. per-record fsync latency).
	Ignore       bool   `json:"ignore,omitempty"`
	IgnoreReason string `json:"ignore_reason,omitempty"`
}

// File is the on-disk baseline format, versioned for forward evolution.
// Go/OS/Arch record the environment the numbers were taken on; Scale
// describes the run shape (runs × benchtime) so a baseline regenerated
// under different settings is visibly different.
type File struct {
	Version int      `json:"version"`
	Area    string   `json:"area"`
	Go      string   `json:"go"`
	OS      string   `json:"os"`
	Arch    string   `json:"arch"`
	Scale   string   `json:"scale"`
	Results []Result `json:"results"`
}

// Version is the current baseline schema version.
const Version = 1

// BaselineName returns the conventional file name for an area's checked-in
// baseline, e.g. "BENCH_transport.json".
func BaselineName(area string) string {
	return "BENCH_" + area + ".json"
}

// WriteFile records a baseline at path, results sorted by bench name so
// regenerated baselines diff cleanly.
func WriteFile(path string, f *File) error {
	out := *f
	out.Version = Version
	out.Results = append([]Result(nil), f.Results...)
	sort.Slice(out.Results, func(i, j int) bool {
		return out.Results[i].Bench < out.Results[j].Bench
	})
	data, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a baseline, rejecting unknown schema versions.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("perf: parsing baseline %s: %w", path, err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("perf: baseline %s has version %d, want %d", path, f.Version, Version)
	}
	return &f, nil
}

// MergeBest folds multiple runs of the same suite into a best-of-N result
// set: minimum ns/op (the least-noisy estimate of the true cost), minimum
// allocs/op and B/op, and the iteration count of the fastest run. Benches
// appearing in only some runs are kept.
func MergeBest(runs ...[]Result) []Result {
	best := make(map[string]Result)
	var order []string
	for _, run := range runs {
		for _, r := range run {
			b, ok := best[r.Bench]
			if !ok {
				best[r.Bench] = r
				order = append(order, r.Bench)
				continue
			}
			if r.NsPerOp < b.NsPerOp {
				b.NsPerOp = r.NsPerOp
				b.Iterations = r.Iterations
			}
			if r.AllocsPerOp < b.AllocsPerOp {
				b.AllocsPerOp = r.AllocsPerOp
			}
			if r.BytesPerOp < b.BytesPerOp {
				b.BytesPerOp = r.BytesPerOp
			}
			b.Ignore = b.Ignore || r.Ignore
			if b.IgnoreReason == "" {
				b.IgnoreReason = r.IgnoreReason
			}
			best[r.Bench] = b
		}
	}
	out := make([]Result, 0, len(order))
	for _, name := range order {
		out = append(out, best[name])
	}
	return out
}
