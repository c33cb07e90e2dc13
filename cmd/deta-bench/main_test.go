package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"deta/internal/perf"
)

// TestMain doubles as the re-exec helper: with DETA_BENCH_MAIN=1 the test
// binary behaves like the real deta-bench, so tests can observe true exit
// codes (the watchdog path must os.Exit).
func TestMain(m *testing.M) {
	if os.Getenv("DETA_BENCH_MAIN") == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// reexec runs the test binary as deta-bench with the given args.
func reexec(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DETA_BENCH_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	code = 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// TestWatchdogExitCode: a run that exceeds -timeout must exit 3 (not the
// generic failure code), with the watchdog named on stderr.
func TestWatchdogExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the binary")
	}
	_, stderr, code := reexec(t, "-exp", "all", "-scale", "fast", "-timeout", "1ms")
	if code != 3 {
		t.Fatalf("exit code %d, want 3 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "watchdog") {
		t.Errorf("stderr missing watchdog notice: %s", stderr)
	}
}

// TestWatchdogFlushesPartialOutput pins the flush half of the watchdog
// contract in-process: buffered-but-unflushed results must reach the
// underlying writer before the exit.
func TestWatchdogFlushesPartialOutput(t *testing.T) {
	var sink bytes.Buffer
	out := &lockedWriter{w: bufio.NewWriter(&sink)}
	if _, err := out.Write([]byte("partial result line\n")); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Fatal("write was not buffered; flush test is vacuous")
	}

	exited := make(chan int, 1)
	old := osExit
	osExit = func(code int) {
		exited <- code
		runtime.Goexit() // end the watchdog goroutine like os.Exit would
	}
	defer func() { osExit = old }()

	var errb bytes.Buffer
	startWatchdog(5*time.Millisecond, out, &errb)
	select {
	case code := <-exited:
		if code != 3 {
			t.Errorf("watchdog exit code %d, want 3", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never fired")
	}
	if got := sink.String(); !strings.Contains(got, "partial result line") {
		t.Errorf("partial output not flushed before exit: %q", got)
	}
	if !strings.Contains(errb.String(), "watchdog") {
		t.Errorf("stderr missing watchdog notice: %q", errb.String())
	}
}

// TestRunExperimentInProcess: the ordinary experiment path still works
// through run() and returns 0.
func TestRunExperimentInProcess(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-exp", "ablation-keyspace", "-scale", "fast"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "KeyBits") {
		t.Errorf("output missing table header:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-exp", "no-such-experiment"},
		{"-scale", "warp"},
		{"-format", "yaml"},
		{"-perf", "-perf-area", "nope"},
		{"-perf", "-perf-area", " , "},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errb.String())
		}
	}
}

// TestPerfBaselineWorkflow drives the full -perf lifecycle in-process:
// baseline-write creates BENCH_agg.json, a rerun against that baseline
// slowed 10x passes the gate, and a baseline tampered to look 10x faster
// (i.e. the fresh run is a ~900% slowdown) fails it with exit code 4.
func TestPerfBaselineWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks")
	}
	dir := t.TempDir()
	quick := []string{"-perf", "-perf-area", "agg", "-perf-runs", "1",
		"-perf-benchtime", "1ms", "-perf-baseline", dir}

	var out, errb bytes.Buffer
	if code := run(append(quick, "-perf-baseline-write"), &out, &errb); code != 0 {
		t.Fatalf("baseline-write exit %d, stderr: %s", code, errb.String())
	}
	path := filepath.Join(dir, perf.BaselineName("agg"))
	base, err := perf.ReadFile(path)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	if len(base.Results) == 0 || base.Area != "agg" {
		t.Fatalf("baseline malformed: %+v", base)
	}

	// A rerun against a baseline made 10x slower, with 64 allocs/op of
	// headroom, passes the default gate. The slack absorbs scheduler noise
	// at a 1ms benchtime (one-iteration benches jitter a few allocs/op run
	// to run) without loosening the gate itself; the structural checks
	// (every baselined bench present in the fresh run) still apply.
	slow := *base
	slow.Results = append([]perf.Result(nil), base.Results...)
	for i := range slow.Results {
		slow.Results[i].NsPerOp *= 10
		slow.Results[i].AllocsPerOp += 64
	}
	if err := perf.WriteFile(path, &slow); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	freshDir := filepath.Join(dir, "fresh")
	code := run(append(quick, "-perf-fresh-dir", freshDir), &out, &errb)
	if code != 0 {
		t.Fatalf("rerun against a slowed baseline exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "area agg") {
		t.Errorf("delta table missing:\n%s", out.String())
	}
	if _, err := perf.ReadFile(filepath.Join(freshDir, perf.BaselineName("agg"))); err != nil {
		t.Errorf("-perf-fresh-dir results missing: %v", err)
	}

	// Inject a synthetic slowdown by shrinking the baseline 10x.
	for i := range base.Results {
		base.Results[i].NsPerOp /= 10
	}
	if err := perf.WriteFile(path, base); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(quick, &out, &errb); code != 4 {
		t.Fatalf("slowdown exit %d, want 4\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") || !strings.Contains(errb.String(), "regression") {
		t.Errorf("regression not reported\nstdout: %s\nstderr: %s", out.String(), errb.String())
	}

	// A missing baseline is a usage error pointing at -perf-baseline-write.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-perf", "-perf-area", "agg", "-perf-runs", "1", "-perf-benchtime", "1ms",
		"-perf-baseline", t.TempDir()}, &out, &errb); code != 2 {
		t.Errorf("missing baseline exit %d, want 2", code)
	}
}
