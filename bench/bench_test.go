package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestMain lets the test binary serve the reference kernel when the
// harness under test re-executes it for that.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == calibrateArg {
		if err := serveReferenceKernel(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to a model of 192 parameters and three measured
// rounds, restarting (where it restarts at all) every second round.
func tiny(w workload) workload {
	w.Params, w.Rounds, w.Warmup = 192, 3, 1
	if w.RestartEvery > 0 {
		w.RestartEvery = 2
	}
	return w
}

func TestEveryWorkloadPassesTheOracle(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			rep, env, err := runWorkload(context.Background(), tiny(w), options{seed: 7, stateDir: filepath.Join(t.TempDir(), "state")})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted != 4*w.Parties {
				t.Fatalf("correct=%v failed=%d attempted=%d, want true, 0, %d", rep.Correct, rep.Failed, rep.Attempted, 4*w.Parties)
			}
			if env.GOMAXPROCS < 1 || env.GOMAXPROCS > 4 {
				t.Errorf("GOMAXPROCS %d, want 1..4", env.GOMAXPROCS)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, m, d.Unit)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	defer func(d time.Duration) { probeFor = d }(probeFor)
	probeFor = time.Millisecond
	w, _ := findWorkload("wal_restart")
	w = tiny(w)
	w.Rounds = 16 // one untraced and one traced block
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	rep, _, err := runWorkload(context.Background(), w, options{seed: 7, trace: true, traceOut: spans, stateDir: filepath.Join(dir, "state")})
	if err != nil {
		t.Fatal(err) // includes a phase.coverage outside [0.95, 1.05]
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	// N·K uploads, K aggregates and N·K downloads, no retry and no timeout.
	if got, want := rep.Metrics["transport.calls_per_round"].Value, float64(2*w.Parties*w.Aggregators+w.Aggregators); got != want {
		t.Errorf("transport.calls_per_round = %v, want %v", got, want)
	}
	for _, name := range []string{"transport.retries", "transport.timeouts"} {
		if got := rep.Metrics[name].Value; got != 0 {
			t.Errorf("%s = %v, want 0", name, got)
		}
	}
	for _, name := range []string{"phase.recover_ms", "journal.bytes_per_upload", "journal.replay_records", "core.recover_us"} {
		if got := rep.Metrics[name].Value; got <= 0 {
			t.Errorf("%s = %v, want > 0 on a journalled, restarting workload", name, got)
		}
	}
	var recorded []span
	if err := readJSON(spans, &recorded); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]int)
	for _, s := range recorded {
		names[s.Name]++
		if s.End < s.Start || (s.Name != "round" && recorded[s.Parent].Name != "round") {
			t.Fatalf("malformed span %+v", s)
		}
	}
	for _, name := range []string{"round", "core.transform", "core.upload_all", "core.aggregate", "core.download_all", "core.inverse", "core.recover"} {
		if names[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// TestNamesMatchBenchmarkJSON keeps what the binary emits and what
// BENCHMARK.json declares from drifting apart.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	var spec benchmarkSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	declared := func(ms []boundedMetric) []metricDef {
		var out []metricDef
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(spec.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end declares\n%v\nthe binary emits\n%v", got, endToEnd)
	}
	if got := declared(spec.PerLayer); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer declares\n%v\nthe binary emits\n%v", got, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %q: %q", i, spec.Workloads[i], w.Name, w.Why)
		}
	}
}

func TestNearestRankPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {10, 1}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{42}, 99); got != 42 {
		t.Errorf("p99 of one sample = %v, want it", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{{100, 90, 10}, {99, 90, 9}, {1200, 90, 120}, {1000, 99, 10}, {19, 90, 1}} {
		if got := samplesBeyond(c.n, c.p); got != c.want {
			t.Errorf("samples beyond p%v of %d = %d, want %d", c.p, c.n, got, c.want)
		}
	}
}

func TestSelfTimeAndPhases(t *testing.T) {
	spans := []span{
		{Name: "round", Start: 0, End: 100, Parent: -1, Round: 3},
		{Name: "core.transform", Start: 0, End: 10, Parent: 0, Round: 3},
		{Name: "core.transform", Start: 10, End: 16, Parent: 0, Round: 3},
		{Name: "core.upload_all", Start: 20, End: 50, Parent: 0, Round: 3}, // overlaps the next
		{Name: "core.upload_all", Start: 30, End: 60, Parent: 0, Round: 3},
		{Name: "core.aggregate", Start: 60, End: 70, Parent: 0, Round: 3},
		{Name: "core.download_all", Start: 70, End: 90, Parent: 0, Round: 3},
		{Name: "core.inverse", Start: 90, End: 95, Parent: 0, Round: 3},
		{Name: "round", Start: 100, End: 130, Parent: -1, Round: 4},
		{Name: "core.recover", Start: 105, End: 125, Parent: 8, Round: 4},
	}
	self := selfTimes(spans)
	// Round 3: children cover [0,16] ∪ [20,95], so 9 of 100 is its own.
	if self[0] != 9 || self[8] != 10 || self[3] != 30 {
		t.Errorf("self times %v: want round 3 = 9, round 4 = 10, a leaf its duration", self)
	}
	got := phasesFromSpans(spans)
	want := map[int]phases{
		3: {Transform: 10, Upload: 40, Fuse: 10, Download: 20, Inverse: 5},
		4: {Recover: 20},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("phases %+v, want %+v", got, want)
	}
	var sum phases
	sum.add(got[3])
	sum.add(got[4])
	if sum.total() != 105 {
		t.Errorf("critical path %d, want 105", sum.total())
	}
}

// TestSameSeedSameRun pins that the seed alone decides the inputs and the
// work: the update vectors, the expected output, and the number of RPCs.
func TestSameSeedSameRun(t *testing.T) {
	w, _ := findWorkload("ctl_small")
	w = tiny(w)
	ctx := context.Background()
	play := func(seed int64) (*cluster, int64) {
		c, err := setup(ctx, w, seedBytes(seed), filepath.Join(t.TempDir(), "nodes"), false)
		if err != nil {
			t.Fatal(err)
		}
		var s samples
		if _, err := c.play(ctx, 1, func(played int) bool { return played >= 2 }, nil, &s); err != nil || s.failed != 0 {
			t.Fatalf("err=%v failed=%d", err, s.failed)
		}
		calls := c.callStats().Calls
		if err := c.close(); err != nil {
			t.Fatal(err)
		}
		return c, calls
	}
	a, aCalls := play(11)
	b, bCalls := play(11)
	other, _ := play(12)
	if !reflect.DeepEqual(a.updates, b.updates) || !bitIdentical(a.expected, b.expected) || !reflect.DeepEqual(a.mapper.Counts(), b.mapper.Counts()) {
		t.Error("the same seed gave different inputs")
	}
	if aCalls != bCalls || aCalls == 0 {
		t.Errorf("the same seed made %d and %d calls", aCalls, bCalls)
	}
	if reflect.DeepEqual(a.updates, other.updates) {
		t.Error("a different seed gave the same inputs")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	result := func(file string, scale map[string]float64) string {
		rep := report{Correct: true, Attempted: 10, Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			v := 100.0
			if s, ok := scale[d.Name]; ok {
				v *= s
			}
			rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		}
		path := filepath.Join(dir, file)
		if err := writeJSON(path, resultSet{Workloads: map[string]report{"ctl_small": rep, "bulk_tls": rep}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := result("a.json", nil)
	for _, c := range []struct {
		name  string
		scale map[string]float64
		ok    bool
	}{
		{"identical", nil, true},
		{"slower within bound", map[string]float64{"round_ms_p50": 1.05}, true},
		{"slower outside bound", map[string]float64{"round_ms_p50": 1.5}, false},
		{"faster", map[string]float64{"round_ms_p50": 0.5}, true},
		{"throughput down outside bound", map[string]float64{"uploads_per_s": 0.5}, false},
		{"throughput up", map[string]float64{"uploads_per_s": 2}, true},
		{"one more alloc in ten", map[string]float64{"allocs_per_upload": 1.1}, false},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, spec, base, result("b.json", c.scale))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("%s: within bounds = %v, want %v\n%s", c.name, ok, c.ok, out.String())
		}
		if !bytes.Contains(out.Bytes(), []byte("bulk_tls")) || !bytes.Contains(out.Bytes(), []byte("setup_s")) {
			t.Errorf("%s: the table lacks a workload row or a metric:\n%s", c.name, out.String())
		}
	}
	// Set-up times that differ by under 50 ms are equal whatever the ratio.
	m := boundedMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	if !withinBound(m, 0.030, 0.070) || withinBound(m, 0.30, 0.40) {
		t.Error("setup_s: want 30→70 ms within bound and 300→400 ms outside")
	}
}

// TestResultLine pins the shape of the line the driver parses.
func TestResultLine(t *testing.T) {
	line, err := json.Marshal(report{Correct: true, Attempted: 3, Metrics: map[string]metric{"setup_s": {Value: 0.5, Unit: "s", N: 5}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("result line\n%s\nwant\n%s", line, want)
	}
}

func TestUnknownWorkloadIsAUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("exit code %d, want 2; stderr: %s", code, errOut.String())
	}
}
