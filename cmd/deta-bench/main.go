// Command deta-bench regenerates the paper's tables and figures
// (DESIGN.md §4 maps each experiment ID to the artifact it reproduces)
// and maintains the repo's machine-readable performance baselines
// (BENCH_<area>.json, see EXPERIMENTS.md "Tracked baselines").
//
//	deta-bench -exp fig5a                 # one experiment at default scale
//	deta-bench -exp all -scale fast       # everything, minutes of runtime
//	deta-bench -exp table1 -attack-images 100 -attack-iters 300
//	deta-bench -exp churn                 # round-lifecycle churn sweep (abandoned vs degraded)
//
//	deta-bench -perf                      # rerun the perf suite, compare to BENCH_*.json
//	deta-bench -perf -perf-baseline-write # refresh the checked-in baselines
//	deta-bench -perf -perf-area agg,core  # only some areas
//
// Exit codes: 0 success, 1 experiment failure, 2 usage error,
// 3 watchdog timeout (-timeout expired; partial results are flushed),
// 4 perf regression against the baselines.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"deta/internal/core"
	"deta/internal/experiments"
	"deta/internal/perf"
)

// osExit is swappable so tests can observe the watchdog exit path.
var osExit = os.Exit

// clk is the process clock behind the watchdog timer (core.SystemClock in
// production); injectable alongside osExit so tests can fire the watchdog
// without real waiting.
var clk core.Clock = core.SystemClock

// lockedWriter serializes writes so the watchdog can flush partial
// results from its own goroutine without racing the experiment writer.
type lockedWriter struct {
	mu sync.Mutex
	w  *bufio.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func (l *lockedWriter) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of deta-bench: it parses args on its own
// FlagSet, writes results to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := newBenchFlags()
	fs.fs.SetOutput(stderr)
	if err := fs.fs.Parse(args); err != nil {
		return 2
	}

	log.SetPrefix("deta-bench: ")
	log.SetFlags(log.Ltime)

	out := &lockedWriter{w: bufio.NewWriter(stdout)}
	defer func() { _ = out.Flush() }()

	if *fs.timeout > 0 {
		// Watchdog: a wedged experiment (e.g. an RPC harness waiting on a
		// dead endpoint) kills the run instead of hanging CI forever —
		// flushing whatever partial results were produced and exiting
		// with a distinct code so callers can tell timeout from failure.
		startWatchdog(*fs.timeout, out, stderr)
	}

	if *fs.perfRun {
		return runPerf(fs, out, stderr)
	}
	return runExperiments(fs, out, stderr)
}

// startWatchdog arms the -timeout watchdog. Exposed as a function so the
// flush-then-exit path is testable in-process; the wait goes through clk
// so the timer respects the clock seam (nobody ever stopped the returned
// *time.Timer, so a plain goroutine is equivalent and simpler).
func startWatchdog(d time.Duration, out *lockedWriter, stderr io.Writer) {
	go func() {
		<-clk.After(d)
		_ = out.Flush()
		fmt.Fprintf(stderr, "deta-bench: watchdog: run exceeded -timeout=%v; partial results flushed\n", d)
		osExit(3)
	}()
}

// benchFlags bundles the parsed flag set.
type benchFlags struct {
	fs *flag.FlagSet

	exp       *string
	scaleName *string
	format    *string

	samples      *int
	rounds       *int
	attackImages *int
	attackIters  *int
	igImages     *int
	igIters      *int
	paillierBits *int
	aggregators  *int
	timeout      *time.Duration

	perfRun       *bool
	perfArea      *string
	perfBaseline  *string
	perfWrite     *bool
	perfRuns      *int
	perfBenchtime *time.Duration
	perfFreshDir  *string
}

func newBenchFlags() *benchFlags {
	fs := flag.NewFlagSet("deta-bench", flag.ContinueOnError)
	b := &benchFlags{fs: fs}
	b.exp = fs.String("exp", "all", "experiment ID or 'all'; one of: "+strings.Join(experiments.IDs(), ", "))
	b.scaleName = fs.String("scale", "default", "preset scale: fast | default")
	b.format = fs.String("format", "text", "output format: text | csv")

	// Per-knob overrides (zero means keep the preset value).
	b.samples = fs.Int("samples", 0, "samples per party")
	b.rounds = fs.Int("rounds", 0, "override every workload's round count")
	b.attackImages = fs.Int("attack-images", 0, "images per attack scenario (tables 1-2)")
	b.attackIters = fs.Int("attack-iters", 0, "DLG/iDLG iterations")
	b.igImages = fs.Int("ig-images", 0, "images for the IG grid (table 3)")
	b.igIters = fs.Int("ig-iters", 0, "IG iterations")
	b.paillierBits = fs.Int("paillier-bits", 0, "Paillier modulus size")
	b.aggregators = fs.Int("aggregators", 0, "number of DeTA aggregators")
	b.timeout = fs.Duration("timeout", 0, "abort the whole run after this long (0 = no watchdog); exit code 3")

	// Perf-baseline workflow.
	b.perfRun = fs.Bool("perf", false, "run the tracked perf suite instead of experiments")
	b.perfArea = fs.String("perf-area", "", "comma-separated perf areas (default: all of "+strings.Join(perf.Areas(), ", ")+")")
	b.perfBaseline = fs.String("perf-baseline", ".", "directory holding the BENCH_<area>.json baselines")
	b.perfWrite = fs.Bool("perf-baseline-write", false, "write fresh BENCH_<area>.json baselines instead of comparing")
	b.perfRuns = fs.Int("perf-runs", 3, "best-of-N runs per bench")
	b.perfBenchtime = fs.Duration("perf-benchtime", 100*time.Millisecond, "target benchtime per run")
	b.perfFreshDir = fs.String("perf-fresh-dir", "", "also write the fresh results as BENCH_<area>.json into this directory (e.g. for CI artifacts)")
	return b
}

// runPerf executes the perf suite and either records baselines or gates
// against them.
func runPerf(b *benchFlags, out *lockedWriter, stderr io.Writer) int {
	areas := perf.Areas()
	if *b.perfArea != "" {
		areas = nil
		for _, a := range strings.Split(*b.perfArea, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			if _, err := perf.SuiteBenches(a); err != nil {
				fmt.Fprintf(stderr, "deta-bench: %v\n", err)
				return 2
			}
			areas = append(areas, a)
		}
		if len(areas) == 0 {
			fmt.Fprintln(stderr, "deta-bench: -perf-area selected no areas")
			return 2
		}
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
	}
	regressions := 0
	for _, area := range areas {
		fresh, err := perf.RunArea(area, *b.perfRuns, *b.perfBenchtime, logf)
		if err != nil {
			fmt.Fprintf(stderr, "deta-bench: %v\n", err)
			return 1
		}
		if *b.perfFreshDir != "" {
			if err := writeBaseline(*b.perfFreshDir, fresh); err != nil {
				fmt.Fprintf(stderr, "deta-bench: %v\n", err)
				return 1
			}
		}
		if *b.perfWrite {
			if err := writeBaseline(*b.perfBaseline, fresh); err != nil {
				fmt.Fprintf(stderr, "deta-bench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "deta-bench: wrote %d bench(es) to %s\n",
				len(fresh.Results), filepath.Join(*b.perfBaseline, perf.BaselineName(area)))
			continue
		}
		basePath := filepath.Join(*b.perfBaseline, perf.BaselineName(area))
		base, err := perf.ReadFile(basePath)
		if err != nil {
			fmt.Fprintf(stderr, "deta-bench: %v (run -perf -perf-baseline-write to create baselines)\n", err)
			return 2
		}
		deltas := perf.Compare(base.Results, fresh.Results, perf.DefaultThresholds())
		perf.RenderDeltas(out, area, deltas)
		regressions += perf.Regressions(deltas)
	}
	if regressions > 0 {
		_ = out.Flush()
		fmt.Fprintf(stderr, "deta-bench: %d perf regression(s) vs baselines; investigate or refresh with -perf-baseline-write\n", regressions)
		return 4
	}
	return 0
}

func writeBaseline(dir string, f *perf.File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return perf.WriteFile(filepath.Join(dir, perf.BaselineName(f.Area)), f)
}

// runExperiments is the original table/figure front door.
func runExperiments(b *benchFlags, out *lockedWriter, stderr io.Writer) int {
	var sc experiments.Scale
	switch *b.scaleName {
	case "fast":
		sc = experiments.FastScale()
	case "default":
		sc = experiments.DefaultScale()
	default:
		fmt.Fprintf(stderr, "deta-bench: unknown scale %q (want fast | default)\n", *b.scaleName)
		return 2
	}
	if *b.samples > 0 {
		sc.SamplesPerParty = *b.samples
	}
	if *b.rounds > 0 {
		sc.MNISTRounds = *b.rounds
		sc.CIFARRounds = *b.rounds
		sc.RVLRounds = *b.rounds
		sc.PaillierRounds = *b.rounds
	}
	if *b.attackImages > 0 {
		sc.AttackImages = *b.attackImages
	}
	if *b.attackIters > 0 {
		sc.AttackIters = *b.attackIters
	}
	if *b.igImages > 0 {
		sc.IGImages = *b.igImages
	}
	if *b.igIters > 0 {
		sc.IGIters = *b.igIters
	}
	if *b.paillierBits > 0 {
		sc.PaillierBits = *b.paillierBits
	}
	if *b.aggregators > 0 {
		sc.Aggregators = *b.aggregators
	}

	var fm experiments.Format
	switch *b.format {
	case "text":
		fm = experiments.FormatText
	case "csv":
		fm = experiments.FormatCSV
	default:
		fmt.Fprintf(stderr, "deta-bench: unknown format %q (want text | csv)\n", *b.format)
		return 2
	}

	var err error
	if *b.exp == "all" {
		err = experiments.RunAll(sc, fm, out)
	} else {
		if _, ok := experiments.Registry[*b.exp]; !ok {
			fmt.Fprintf(stderr, "deta-bench: unknown experiment %q (want all, %s)\n",
				*b.exp, strings.Join(experiments.IDs(), ", "))
			return 2
		}
		err = experiments.Run(*b.exp, sc, fm, out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "deta-bench: %v\n", err)
		return 1
	}
	return 0
}
