package transport

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Stats counts per-connection RPC activity. Every Client owns one; fan-out
// layers (core.Fleet, cmd/deta-party) read snapshots to report
// per-aggregator latency and retry behaviour. All methods are safe for
// concurrent use.
type Stats struct {
	calls       atomic.Int64
	failures    atomic.Int64
	timeouts    atomic.Int64
	retries     atomic.Int64
	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	latencyNS   atomic.Int64
}

// StatsSnapshot is a point-in-time copy of a Stats.
type StatsSnapshot struct {
	// Calls is the number of RPCs started.
	Calls int64
	// Failures is the number of RPCs that returned an error (timeouts
	// included).
	Failures int64
	// Timeouts is the subset of failures caused by a context deadline or
	// cancellation.
	Timeouts int64
	// Retries is the number of failed attempts the boot dial
	// (TLSMaterials.DialTLSBackoff) made before this connection; it is 0
	// for a connection made any other way, a redial's included.
	Retries int64
	// MaxInFlight is the high-water mark of concurrent calls.
	MaxInFlight int64
	// AvgLatency is the mean round-trip of successful calls.
	AvgLatency time.Duration
}

func (s *Stats) callStarted() {
	s.calls.Add(1)
	n := s.inFlight.Add(1)
	for {
		max := s.maxInFlight.Load()
		if n <= max || s.maxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

func (s *Stats) callDone(start time.Time, err error, timedOut bool) {
	s.inFlight.Add(-1)
	if err != nil {
		s.failures.Add(1)
		if timedOut {
			s.timeouts.Add(1)
		}
		return
	}
	s.latencyNS.Add(int64(time.Since(start)))
}

// Snapshot returns a consistent-enough copy for reporting.
func (s *Stats) Snapshot() StatsSnapshot {
	snap := StatsSnapshot{
		Calls:       s.calls.Load(),
		Failures:    s.failures.Load(),
		Timeouts:    s.timeouts.Load(),
		Retries:     s.retries.Load(),
		MaxInFlight: s.maxInFlight.Load(),
	}
	if ok := snap.Calls - snap.Failures; ok > 0 {
		snap.AvgLatency = time.Duration(s.latencyNS.Load() / ok)
	}
	return snap
}

// String renders a one-line summary, e.g. for per-aggregator logs.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("calls=%d failures=%d timeouts=%d retries=%d max-inflight=%d avg-latency=%v",
		s.Calls, s.Failures, s.Timeouts, s.Retries, s.MaxInFlight, s.AvgLatency)
}
