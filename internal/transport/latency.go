package transport

import (
	"math/rand"
	"net"
	"sync"
	"time"
)

// JitterConn injects a per-write delay drawn uniformly from [Min, Max].
// With Min == Max it is a fixed one-way delay and draws nothing: DeTA
// deploys aggregators at different geo-locations (paper §4.1), and the
// geo-distribution ablation uses it to measure how inter-site latency
// scales the round cost. With a span it models the variable service
// times the race and fault-injection tests need: responses on a
// multiplexed connection genuinely come back out of order.
type JitterConn struct {
	net.Conn
	Min, Max time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// WithJitter wraps conn with a seeded random write delay in [min, max].
func WithJitter(conn net.Conn, min, max time.Duration, seed int64) net.Conn {
	if max < min {
		min, max = max, min
	}
	return &JitterConn{Conn: conn, Min: min, Max: max, rng: rand.New(rand.NewSource(seed))}
}

// Write implements net.Conn with the randomized delay.
func (c *JitterConn) Write(p []byte) (int, error) {
	span := c.Max - c.Min
	d := c.Min
	if span > 0 {
		c.mu.Lock()
		d += time.Duration(c.rng.Int63n(int64(span)))
		c.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Write(p)
}

// JitterListener wraps a listener so every accepted connection carries an
// independent randomized write delay (seeded per connection from the
// listener seed, so runs are reproducible).
type JitterListener struct {
	net.Listener
	Min, Max time.Duration
	Seed     int64

	mu sync.Mutex
	n  int64
}

// WithListenerJitter wraps ln so accepted connections randomize their
// write delays in [min, max].
func WithListenerJitter(ln net.Listener, min, max time.Duration, seed int64) net.Listener {
	return &JitterListener{Listener: ln, Min: min, Max: max, Seed: seed}
}

// Accept implements net.Listener.
func (l *JitterListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.n++
	seed := l.Seed + l.n
	l.mu.Unlock()
	return WithJitter(conn, l.Min, l.Max, seed), nil
}
