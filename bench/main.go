// Command bench is the end-to-end DeTA round benchmark that BENCHMARK.json
// defines: it plays whole rounds — party Transform, fragment uploads over
// the real transport, journalled aggregator nodes, fusion, downloads,
// InverseTransform — against provisioned aggregators, checks every output
// against central aggregation, and reports the end-to-end metrics, or with
// -trace 1 the per-layer ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == calibrateArg {
		if err := serveReferenceKernel(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// resultSet is what -out writes and -compare reads: every workload's
// report, with the environment it was measured in.
type resultSet struct {
	Env       environment       `json:"env"`
	Workloads map[string]report `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload to run in this process (default: all, each in a fresh subprocess)")
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 0, "length of the measured phase (0: the workload's own round count)")
		trace    = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: timed run reporting the end-to-end ones")
		traceOut = fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>.json)")
		timeout  = fs.Duration("timeout", 120*time.Second, "per-workload watchdog: a run still going after this long fails")
		out      = fs.String("out", "", "write the results as JSON, for -compare")
		compare  = fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		ok, err := compareFiles(stdout, filepath.Join(root, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-out file] | bench -compare a.json b.json")
		return 2
	}
	build := filepath.Join(root, ".bench_build")

	if *name == "" {
		set, err := runAll(args, build, stdout, stderr)
		if err == nil && *out != "" {
			err = writeJSON(*out, set)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut,
		stateDir: filepath.Join(build, fmt.Sprintf("state-%d", os.Getpid())),
	}
	if opt.trace && opt.traceOut == "" {
		opt.traceOut = filepath.Join(build, "trace-"+w.Name+".json")
	}
	// A hang in the layers under test must fail the run, not stall it.
	watchdog := time.AfterFunc(*timeout, func() {
		fmt.Fprintf(stderr, "bench: %s still running after %v; giving up\n", w.Name, *timeout)
		_ = os.RemoveAll(opt.stateDir) // best effort on the way out
		os.Exit(3)
	})
	rep, env, runErr := runWorkload(context.Background(), w, opt)
	watchdog.Stop()

	printReport(stdout, w, env, opt, rep)
	if env.StateDirFS == "tmpfs" && w.Journal == journalFsync {
		fmt.Fprintln(stderr, "warning: the state directory is on tmpfs; fsync costs nothing there")
	}
	if *out != "" && runErr == nil {
		if err := writeJSON(*out, resultSet{Env: env, Workloads: map[string]report{w.Name: rep}}); err != nil {
			runErr = err
		}
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "bench:", runErr)
		return 1
	}
	// The result line is the last line of standard output.
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in a subprocess of its own, so peak RSS,
// pools and collector state never leak from one workload into the next.
func runAll(args []string, build string, stdout, stderr io.Writer) (resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return resultSet{}, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return resultSet{}, err
	}
	tmp, err := os.MkdirTemp(build, "results-")
	if err != nil {
		return resultSet{}, err
	}
	defer os.RemoveAll(tmp)
	set := resultSet{Workloads: make(map[string]report)}
	var failed []string
	for _, w := range workloads {
		file := filepath.Join(tmp, w.Name+".json")
		// A later flag wins, so the caller's -out gives way to ours.
		cmd := exec.Command(self, append(append([]string(nil), args...), "-workload", w.Name, "-out", file)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.Name, err))
			continue
		}
		var one resultSet
		if err := readJSON(file, &one); err != nil {
			return set, err
		}
		set.Env = one.Env
		set.Workloads[w.Name] = one.Workloads[w.Name]
	}
	if len(failed) > 0 {
		return set, errors.New(strings.Join(failed, "; "))
	}
	return set, nil
}

// printReport prints every metric by name with its unit and sample count,
// and the environment the numbers were taken in.
func printReport(out io.Writer, w workload, env environment, opt options, rep report) {
	listener := "in-memory"
	if w.TLS {
		listener = "loopback TLS"
	}
	fmt.Fprintf(out, "== %s: N=%d n=%d K=%d D=%d %s journal=%s listener=%s seed=%d\n",
		w.Name, w.Parties, w.Params, w.Aggregators, w.Drivers, w.Algorithm.Name(), w.Journal, listener, opt.seed)
	fmt.Fprintf(out, "   %s GOMAXPROCS=%d nproc=%d state-dir-fs=%s\n", env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.StateDirFS)
	if env.CalibUS == 0 {
		// The run ended before any round was measured.
	} else if opt.trace {
		fmt.Fprintf(out, "   reference kernel %.1f us (nominal %.0f us); per-layer times are as measured\n", env.CalibUS, float64(calibNominal)/1e3)
	} else {
		fmt.Fprintf(out, "   reference kernel %.1f us (nominal %.0f us): times are scaled by %.3f to the nominal machine\n",
			env.CalibUS, float64(calibNominal)/1e3, float64(calibNominal)/1e3/env.CalibUS)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		samples := ""
		if m.N > 0 {
			samples = fmt.Sprintf("  (%d samples)", m.N)
		}
		fmt.Fprintf(out, "   %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, samples)
	}
	share := 0.0
	if rep.Attempted > 0 {
		share = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Fprintf(out, "   %-34s %14.4f %-6s  (%d of %d party-rounds)\n", "failed_share", share, "ratio", rep.Failed, rep.Attempted)
}

// repoRoot is the nearest directory at or above the working directory
// that holds BENCHMARK.json.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no BENCHMARK.json at or above the working directory")
		}
		dir = parent
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
