package main

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// calibNominal is the reference kernel's time on the nominal machine: the
// development sandbox while its host is quiet. A timed run reports its
// times scaled by calibNominal ÷ the kernel's median time in that run.
const calibNominal = 100 * time.Microsecond

// calibrateArg, as the only argument, makes the binary serve the
// reference kernel instead of running the benchmark.
const calibrateArg = "-serve-reference-kernel"

// calibEvery is how often a run stops between two rounds to time the
// reference kernel, and calibPasses how many passes one such stop makes.
// The first quarter of the passes warms the caches the rounds have
// evicted and is discarded, so what a round leaves behind does not reach
// the result; the stops cost a run about 2 % of its time.
const (
	calibEvery  = time.Second
	calibPasses = 160
)

// calibrator measures how fast the machine is while a run runs. A shared
// sandbox's speed drifts by the minute: ten identical runs put the same
// Transform anywhere from 1.9 to 3.0 ms and the same round from 28 to
// 42 ms, whole runs at a time. The drift hits allocation-heavy code (a
// cache-resident hash or a streaming sum does not feel it), which is what
// a round mostly is, so the reference kernel is that: keyed-hash set-ups
// and small allocations, standard library only. It runs between rounds,
// outside every timed interval, in a child process of its own, so that
// neither a change to the code under test nor the state of the
// benchmark's heap and collector can move it.
type calibrator struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  io.ReadCloser
	last time.Time // when the kernel was last timed
}

// startCalibrator starts the child; stop ends it.
func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	k := &calibrator{cmd: exec.Command(self, calibrateArg)}
	k.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	k.cmd.Stderr = os.Stderr
	if k.in, err = k.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if k.out, err = k.cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := k.cmd.Start(); err != nil {
		return nil, err
	}
	return k, nil
}

// due reports whether calibEvery has passed since the kernel was timed.
func (k *calibrator) due() bool { return time.Since(k.last) >= calibEvery }

// run has the child time the kernel and returns the median pass.
func (k *calibrator) run() (time.Duration, error) {
	if _, err := k.in.Write([]byte{1}); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	var buf [8]byte
	if _, err := io.ReadFull(k.out, buf[:]); err != nil {
		return 0, fmt.Errorf("reference kernel: %w", err)
	}
	k.last = time.Now()
	return time.Duration(binary.LittleEndian.Uint64(buf[:])), nil
}

// stop ends the child and waits for it.
func (k *calibrator) stop() error {
	if err := k.in.Close(); err != nil {
		return err
	}
	return k.cmd.Wait()
}

// serveReferenceKernel is the child: for every byte on in it makes
// calibPasses passes of the kernel and writes the median time of the last
// three quarters of them, in nanoseconds, to out; it returns when in ends.
func serveReferenceKernel(in io.Reader, out io.Writer) error {
	key := []byte("deta-bench reference kernel key!")
	keep := make([][]byte, 256)
	var sink byte
	pass := func() {
		var ctr [8]byte
		for i := 0; i < 128; i++ {
			mac := hmac.New(sha256.New, key)
			binary.BigEndian.PutUint64(ctr[:], uint64(i))
			mac.Write(ctr[:])
			sink ^= mac.Sum(nil)[0]
		}
		for r := 0; r < 4; r++ {
			for i := range keep {
				keep[i] = make([]byte, 64+i)
			}
		}
	}
	var req [1]byte
	for {
		if _, err := io.ReadFull(in, req[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		times := make([]time.Duration, calibPasses)
		for i := range times {
			t0 := time.Now()
			pass()
			times[i] = time.Since(t0)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(median(toUS(times[calibPasses/4:]))*1e3))
		if _, err := out.Write(buf[:]); err != nil {
			return err
		}
	}
}
