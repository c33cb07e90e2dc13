package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"deta/internal/parallel"
)

// A timed run provisions the deployment at least setupMinReps times, and
// on until setupFor has passed or setupMaxReps is reached, so a set-up of
// tens of milliseconds is timed more often than one of a third of a
// second; setup_s is the median and the last deployment plays the rounds.
const (
	setupMinReps = 5
	setupMaxReps = 15
	setupFor     = time.Second
)

// options are one workload run's settings.
type options struct {
	seed     int64
	seconds  int    // measured phase length; 0 plays the workload's own round count
	trace    bool   // per-layer run: spans, probes, central baseline
	traceOut string // span file, written when trace is set
	stateDir string // journals and probe scratch live here; removed at the end
}

// environment is recorded with every result.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	StateDirFS string `json:"state_dir_fs"`
	// CalibUS is the reference kernel's median time in this run; a timed
	// run's times are scaled by calibNominal ÷ it.
	CalibUS float64 `json:"calib_us"`
}

// runWorkload plays one workload in this process and returns its result.
// The report's metrics are the end-to-end ones, or with opt.trace the
// per-layer ones. A run that fails a party-round, leaks a goroutine or
// breaks the phase-coverage check returns both a report and an error.
func runWorkload(ctx context.Context, w workload, opt options) (rep report, env environment, err error) {
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	parallel.SetWorkers(procs)
	// The compute pool's workers live for the process; start them before
	// counting goroutines.
	parallel.For(procs, 1, func(int, int) {})
	calib, err := startCalibrator()
	if err != nil {
		return rep, env, err
	}
	defer func() {
		if serr := calib.stop(); err == nil {
			err = serr
		}
	}()
	goroutines := runtime.NumGoroutine()

	if err := os.MkdirAll(opt.stateDir, 0o755); err != nil {
		return rep, env, err
	}
	defer func() {
		if rerr := os.RemoveAll(opt.stateDir); err == nil {
			err = rerr
		}
	}()
	env = environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: procs,
		NumCPU:     runtime.NumCPU(),
		StateDirFS: filesystemOf(opt.stateDir),
	}

	values := make(map[string]metric)
	var tally samples
	if opt.trace {
		err = tracedRun(ctx, w, opt, calib, &env, values, &tally)
	} else {
		err = timedRun(ctx, w, opt, calib, &env, values, &tally)
	}
	if lerr := waitForGoroutines(goroutines); err == nil {
		err = lerr
	}
	rep = report{Attempted: tally.attempted, Failed: tally.failed}
	if err != nil {
		return rep, env, err
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	} else {
		values["peak_rss_mb"] = metric{Value: peakRSSMiB()}
	}
	if rep.Metrics, err = fill(defs, values); err != nil {
		return rep, env, err
	}
	if rep.Failed > 0 {
		return rep, env, fmt.Errorf("%d of %d party-rounds failed", rep.Failed, rep.Attempted)
	}
	rep.Correct = true
	return rep, env, nil
}

// stopper bounds the measured phase: the -seconds budget when one is set,
// else the workload's round count.
func (o options) stopper(w workload) func(played int) bool {
	if o.seconds > 0 {
		deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
		return func(played int) bool { return played > 0 && !time.Now().Before(deadline) }
	}
	return func(played int) bool { return played >= w.Rounds }
}

func seedBytes(seed int64) []byte { return []byte(fmt.Sprintf("deta-bench/seed-%d", seed)) }

// timedRun measures the end-to-end metrics with tracing off.
func timedRun(ctx context.Context, w workload, opt options, calib *calibrator, env *environment, values map[string]metric, tally *samples) (err error) {
	var (
		c      *cluster
		setups []float64
	)
	for start := time.Now(); len(setups) < setupMinReps || (len(setups) < setupMaxReps && time.Since(start) < setupFor); {
		if c != nil {
			if err := c.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		if c, err = setup(ctx, w, seedBytes(opt.seed), filepath.Join(opt.stateDir, "nodes"), false); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()

	next, err := c.play(ctx, 1, func(played int) bool { return played >= w.Warmup }, nil, tally)
	if err != nil {
		return err
	}
	c.calib = calib // from here on; its first timing follows the first measured round
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var s samples
	cpu0 := cpuSeconds()
	_, err = c.play(ctx, next, opt.stopper(w), nil, &s)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&after)
	tally.attempted += s.attempted
	tally.failed += s.failed
	if err != nil {
		return err
	}

	rounds := len(s.crit)
	uploads := float64(w.Parties * w.Aggregators * rounds)
	var uploadNS int64
	for _, p := range s.crit {
		uploadNS += p.Upload
	}
	sortedMS := sortedCopy(s.roundMS())
	// Times are scaled to the nominal machine; see calibrator.
	env.CalibUS = median(toUS(s.calib))
	k := float64(calibNominal) / 1e3 / env.CalibUS
	values["round_ms_p50"] = metric{Value: k * percentile(sortedMS, 50), N: rounds}
	values["round_ms_p90"] = metric{Value: k * percentile(sortedMS, 90), N: rounds}
	values["uploads_per_s"] = metric{Value: uploads / (float64(uploadNS) / 1e9) / k, N: int(uploads)}
	values["party_ms_p50"] = metric{Value: k * median(toMS(s.party)), N: len(s.party)}
	values["cpu_ms_per_round"] = metric{Value: k * (cpu1 - cpu0) * 1e3 / float64(rounds), N: rounds}
	values["setup_s"] = metric{Value: k * median(setups), N: len(setups)}
	values["allocs_per_upload"] = metric{Value: float64(after.Mallocs-before.Mallocs) / uploads, N: int(uploads)}
	values["alloc_kb_per_upload"] = metric{Value: float64(after.TotalAlloc-before.TotalAlloc) / 1024 / uploads, N: int(uploads)}
	if beyond := samplesBeyond(rounds, 90); beyond < 10 {
		fmt.Fprintf(os.Stderr, "warning: %s: only %d rounds beyond round_ms_p90; it is not resolved\n", w.Name, beyond)
	}
	return nil
}

// tracedRun produces the per-layer metrics: rounds recorded as spans,
// interleaved with unrecorded ones for the overhead comparison, then the
// layer probes on the same deployment and the central baseline.
func tracedRun(ctx context.Context, w workload, opt options, calib *calibrator, env *environment, values map[string]metric, tally *samples) (err error) {
	set := func(name string, v float64, n int) { values[name] = metric{Value: v, N: n} }
	seed := seedBytes(opt.seed)
	c, err := setup(ctx, w, seed, filepath.Join(opt.stateDir, "nodes"), true)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()
	next, err := c.play(ctx, 1, func(played int) bool { return played >= w.Warmup }, nil, tally)
	if err != nil {
		return err
	}
	c.calib = calib // from here on; its first timing follows the first measured round
	// One block of rounds in four runs with the recorder off, so the
	// traced and untraced round times being compared are interleaved.
	rec := newRecorder()
	var plain, s samples
	wire0, journal0, calls0, gc0 := c.uploadWire, c.journalWritten, c.callStats(), readGC()
	stop := opt.stopper(w)
	measured := func() int { return len(plain.crit) + len(s.crit) }
	block := func(n int, rec *recorder, into *samples) error {
		start := measured()
		next, err = c.play(ctx, next, func(played int) bool { return played >= n || stop(start+played) }, rec, into)
		return err
	}
	for err == nil && !stop(measured()) {
		if err = block(4, nil, &plain); err == nil {
			err = block(12, rec, &s)
		}
	}
	gc1 := readGC()
	tally.attempted += plain.attempted + s.attempted
	tally.failed += plain.failed + s.failed
	if err != nil {
		return err
	}
	if err := rec.write(opt.traceOut); err != nil {
		return err
	}

	// Counters that do not depend on the recorder cover every measured
	// round; span-derived numbers cover the traced ones.
	allRounds := measured()
	allUploads := float64(w.Parties * w.Aggregators * allRounds)
	rounds := len(s.crit)
	calls := c.callStats()
	set("transport.calls_per_round", float64(calls.Calls-calls0.Calls)/float64(allRounds), allRounds)
	set("transport.retries", float64(calls.Retries-calls0.Retries), allRounds)
	set("transport.timeouts", float64(calls.Timeouts-calls0.Timeouts), allRounds)
	set("transport.wire_bytes_per_upload", float64(c.uploadWire-wire0)/allUploads, int(allUploads))
	journalBytes := float64(c.journalWritten-journal0) / allUploads
	set("journal.bytes_per_upload", journalBytes, int(allUploads))
	set("journal.write_amp", journalBytes/float64(8*c.mapper.Counts()[0]), int(allUploads))
	calibUS := toUS(append(append([]time.Duration(nil), plain.calib...), s.calib...))
	env.CalibUS = median(calibUS)
	set("proc.calib_us", env.CalibUS, len(calibUS))
	set("proc.gc_cpu_share", (gc1.gcCPU-gc0.gcCPU)/(gc1.totalCPU-gc0.totalCPU), allRounds)
	set("proc.gc_cycles_per_round", float64(gc1.cycles-gc0.cycles)/float64(allRounds), allRounds)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	set("proc.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20), 1)

	tracedP50 := median(s.roundMS())
	set("trace.overhead_share", tracedP50/median(plain.roundMS())-1, rounds)
	coverage := spanMetrics(rec.spans, s, set)

	if err := c.probeLayers(ctx, next, filepath.Join(opt.stateDir, "probe"), values); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	centralMS, centralRounds, err := centralRoundMS(ctx, w, seed, filepath.Join(opt.stateDir, "central"))
	if err != nil {
		return fmt.Errorf("central baseline: %w", err)
	}
	set("baseline.central_round_ms", centralMS, centralRounds)
	set("baseline.overhead_ratio", tracedP50/centralMS, centralRounds)

	if coverage < 0.95 || coverage > 1.05 {
		return fmt.Errorf("phase.coverage %.3f is outside [0.95, 1.05]: the spans no longer account for the round time", coverage)
	}
	return nil
}

// cpuSeconds is the user and system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// spanMetrics derives the phase breakdown and the fan-out call times from
// the spans of the traced rounds s, and returns phase.coverage. The
// breakdown comes from the spans, the round time from the timers around
// the same calls; the two must agree or the breakdown has rotted.
func spanMetrics(spans []span, s samples, set func(name string, v float64, n int)) (coverage float64) {
	rounds := len(s.crit)
	var timed, fromSpans phases
	for _, p := range s.crit {
		timed.add(p)
	}
	for _, p := range phasesFromSpans(spans) {
		fromSpans.add(p)
	}
	perRound := func(ns int64) float64 { return float64(ns) / 1e6 / float64(rounds) }
	set("phase.transform_ms", perRound(fromSpans.Transform), rounds)
	set("phase.upload_ms", perRound(fromSpans.Upload), rounds)
	set("phase.fuse_ms", perRound(fromSpans.Fuse), rounds)
	set("phase.download_ms", perRound(fromSpans.Download), rounds)
	set("phase.inverse_ms", perRound(fromSpans.Inverse), rounds)
	set("phase.recover_ms", perRound(fromSpans.Recover), rounds)
	coverage = float64(fromSpans.total()) / float64(timed.total())
	set("phase.coverage", coverage, rounds)

	var roundNS, roundSelf int64
	var uploadAll, downloadAll []time.Duration
	self := selfTimes(spans)
	for i, sp := range spans {
		switch sp.Name {
		case "round":
			roundNS += sp.dur()
			roundSelf += self[i]
		case "core.upload_all":
			uploadAll = append(uploadAll, time.Duration(sp.dur()))
		case "core.download_all":
			downloadAll = append(downloadAll, time.Duration(sp.dur()))
		}
	}
	set("phase.harness_share", float64(roundSelf)/float64(roundNS), rounds)
	set("core.upload_all_us", mean(toUS(uploadAll)), len(uploadAll))
	set("core.upload_all_ms_p99", percentile(sortedCopy(toMS(uploadAll)), 99), len(uploadAll))
	set("core.download_all_us", mean(toUS(downloadAll)), len(downloadAll))
	return coverage
}

// centralRoundMS plays the paper's baseline — the same parties, model,
// listener and journal mode against one central aggregator, no
// partitioning, no shuffling, no restarts — and returns its median round
// time and the number of rounds behind it.
func centralRoundMS(ctx context.Context, w workload, seed []byte, dir string) (ms float64, rounds int, err error) {
	w.Aggregators, w.Shuffle, w.RestartEvery = 1, false, 0
	c, err := setup(ctx, w, seed, dir, false)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := c.close(); err == nil {
			err = cerr
		}
	}()
	var warm, s samples
	next, err := c.play(ctx, 1, func(played int) bool { return played >= 2 }, nil, &warm)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if _, err := c.play(ctx, next, func(played int) bool { return played >= 10 && time.Since(start) > time.Second }, nil, &s); err != nil {
		return 0, 0, err
	}
	if failed := warm.failed + s.failed; failed > 0 {
		return 0, 0, fmt.Errorf("%d party-rounds failed the oracle", failed)
	}
	return median(s.roundMS()), len(s.crit), nil
}

// gcCounters are the collector's running totals.
type gcCounters struct {
	gcCPU, totalCPU float64 // seconds
	cycles          uint64
}

func readGC() gcCounters {
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(sample)
	return gcCounters{gcCPU: sample[0].Value.Float64(), totalCPU: sample[1].Value.Float64(), cycles: sample[2].Value.Uint64()}
}

// waitForGoroutines gives closed clients, servers and listeners a moment
// to unwind, then fails if more goroutines are alive than before the
// workload started: a leak in the layers under test.
func waitForGoroutines(want int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		got := runtime.NumGoroutine()
		if got <= want {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d alive, %d before the workload\n%s", got, want, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// filesystemOf names the filesystem holding dir, so an fsync number can
// be read for what it is.
func filesystemOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0xEF53: "ext4", 0x794C7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
