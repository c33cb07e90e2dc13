package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json declares the same
// names with direction and bound; a test keeps the two lists equal.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees; every workload reports all
// of them in a timed run.
var endToEnd = []metricDef{
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"uploads_per_s", "1/s"},
	{"party_ms_p50", "ms"},
	{"cpu_ms_per_round", "ms"},
	{"allocs_per_upload", "count"},
	{"alloc_kb_per_upload", "KiB"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer comes only from a traced run.
var perLayer = []metricDef{
	{"rng.perm_us", "us"},
	{"rng.perm_allocs", "count"},
	{"core.transform_us", "us"},
	{"core.transform_warm_us", "us"},
	{"core.inverse_us", "us"},
	{"core.upload_all_us", "us"},
	{"core.upload_all_ms_p99", "ms"},
	{"core.download_all_us", "us"},
	{"core.upload_all_serial_us", "us"},
	{"transport.call_empty_us", "us"},
	{"transport.call_empty_allocs", "count"},
	{"transport.call_frag_us", "us"},
	{"transport.encode_us", "us"},
	{"transport.decode_us", "us"},
	{"transport.encode_allocs", "count"},
	{"transport.decode_allocs", "count"},
	{"transport.wire_bytes_per_upload", "B"},
	{"transport.calls_per_round", "count"},
	{"transport.retries", "count"},
	{"transport.timeouts", "count"},
	{"journal.append_us", "us"},
	{"journal.append_nosync_us", "us"},
	{"journal.bytes_per_upload", "B"},
	{"journal.write_amp", "ratio"},
	{"journal.replay_us", "us"},
	{"journal.replay_records", "count"},
	{"core.node_upload_us", "us"},
	{"core.node_upload_nojournal_us", "us"},
	{"core.node_aggregate_us", "us"},
	{"core.node_download_us", "us"},
	{"core.recover_us", "us"},
	{"agg.fuse_us", "us"},
	{"agg.fuse_allocs", "count"},
	{"phase.transform_ms", "ms"},
	{"phase.upload_ms", "ms"},
	{"phase.fuse_ms", "ms"},
	{"phase.download_ms", "ms"},
	{"phase.inverse_ms", "ms"},
	{"phase.recover_ms", "ms"},
	{"phase.coverage", "ratio"},
	{"phase.harness_share", "ratio"},
	{"rpc.residual_us", "us"},
	{"proc.calib_us", "us"},
	{"proc.gc_cpu_share", "ratio"},
	{"proc.gc_cycles_per_round", "count"},
	{"proc.heap_inuse_mb", "MiB"},
	{"baseline.central_round_ms", "ms"},
	{"baseline.overhead_ratio", "ratio"},
	{"trace.overhead_share", "ratio"},
}

// metric is one reported value. N, the number of samples behind it, is
// printed but not part of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report is the result line of one workload run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metric map for defs from values, refusing a missing or
// an undeclared name so the emitted set cannot drift from the declared
// one.
func fill(defs []metricDef, values map[string]metric) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
func rank(n int, p float64) int {
	return min(n, max(1, int(math.Ceil(p/100*float64(n)))))
}

// samplesBeyond is how many of n samples lie past the p-th percentile. A
// percentile is reported as resolved only with at least ten.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func toMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func toUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}
