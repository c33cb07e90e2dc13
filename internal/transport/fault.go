package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjectedFault is the error surfaced by a FaultConn operation the fault
// plan decided to fail; callers' retry paths treat it like any other
// connection failure.
var ErrInjectedFault = errors.New("transport: injected fault")

// Faults is a probabilistic fault plan for a FaultConn, keyed by a
// deterministic seed so chaos runs are reproducible. Each Read/Write rolls
// independently; probabilities are per operation. The zero value injects
// nothing.
type Faults struct {
	// Seed keys the per-connection PRNG; FaultDialer derives a distinct
	// deterministic seed per connection from it.
	Seed int64

	// DelayProb delays an operation by Delay (default 1ms) — latency and
	// reordering pressure without failing anything.
	DelayProb float64
	Delay     time.Duration

	// DropProb silently discards a write and then severs the connection:
	// the classic ambiguous failure where the caller cannot know whether
	// the peer saw the message. (On a stream, later bytes after a hole
	// would be garbage anyway, so drop implies sever.)
	DropProb float64

	// SeverProb closes the underlying connection mid-operation — a crash
	// or network partition from the peer's point of view.
	SeverProb float64

	// CorruptProb flips one byte of the payload (reads and writes). The
	// framing layer must detect this and fail the connection cleanly.
	CorruptProb float64

	// DupProb writes the operation's bytes twice — duplicated delivery. A
	// frame that leaves in one Write arrives as a well-formed replay (see
	// the package comment for the contract); half a larger frame repeated
	// is framing garbage the peer must survive.
	DupProb float64
}

// FaultConn wraps a net.Conn with deterministic fault injection. Once a
// fault severs the connection every later operation fails, mirroring a real
// broken socket.
type FaultConn struct {
	net.Conn

	mu      sync.Mutex
	rng     *rand.Rand
	f       Faults
	severed bool
}

// NewFaultConn wraps conn with the given fault plan.
func NewFaultConn(conn net.Conn, f Faults) *FaultConn {
	return &FaultConn{Conn: conn, rng: rand.New(rand.NewSource(f.Seed)), f: f}
}

type faultAction int

const (
	actNone faultAction = iota
	actDrop
	actSever
	actCorrupt
	actDup
)

// plan rolls the dice for one operation. The rng and severed flag are
// guarded by mu, but the (possibly blocking) I/O itself runs outside the
// lock so reads never deadlock writes.
func (c *FaultConn) plan(write bool) (faultAction, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.severed {
		return actNone, 0, ErrInjectedFault
	}
	var delay time.Duration
	if c.f.DelayProb > 0 && c.rng.Float64() < c.f.DelayProb {
		if delay = c.f.Delay; delay <= 0 {
			delay = time.Millisecond
		}
	}
	switch {
	case write && c.f.DropProb > 0 && c.rng.Float64() < c.f.DropProb:
		c.severed = true
		return actDrop, delay, nil
	case c.f.SeverProb > 0 && c.rng.Float64() < c.f.SeverProb:
		c.severed = true
		return actSever, delay, nil
	case c.f.CorruptProb > 0 && c.rng.Float64() < c.f.CorruptProb:
		return actCorrupt, delay, nil
	case write && c.f.DupProb > 0 && c.rng.Float64() < c.f.DupProb:
		return actDup, delay, nil
	}
	return actNone, delay, nil
}

// corruptByte flips one byte of p (position from the connection's PRNG).
func (c *FaultConn) corruptByte(p []byte) {
	if len(p) == 0 {
		return
	}
	c.mu.Lock()
	i := c.rng.Intn(len(p))
	c.mu.Unlock()
	p[i] ^= 0xa5
}

func (c *FaultConn) Write(p []byte) (int, error) {
	act, delay, err := c.plan(true)
	if err != nil {
		return 0, err
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	switch act {
	case actDrop:
		// Pretend success; the peer never sees the bytes and the
		// connection is dead from here on.
		return len(p), nil
	case actSever:
		c.Conn.Close()
		return 0, ErrInjectedFault
	case actCorrupt:
		q := append([]byte{}, p...)
		c.corruptByte(q)
		return c.Conn.Write(q)
	case actDup:
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		return c.Conn.Write(p)
	}
	return c.Conn.Write(p)
}

func (c *FaultConn) Read(p []byte) (int, error) {
	act, delay, err := c.plan(false)
	if err != nil {
		return 0, err
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if act == actSever {
		c.Conn.Close()
		return 0, ErrInjectedFault
	}
	n, err := c.Conn.Read(p)
	if act == actCorrupt && n > 0 {
		c.corruptByte(p[:n])
	}
	return n, err
}

// FaultDialer wraps a dial function so every connection it returns carries
// the fault plan, each with its own deterministic seed derived from f.Seed
// and the connection's ordinal — run N, connection K always sees the same
// fault schedule.
func FaultDialer(dial func() (net.Conn, error), f Faults) func() (net.Conn, error) {
	var n int64
	return func() (net.Conn, error) {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		cf := f
		cf.Seed = mix64(f.Seed, atomic.AddInt64(&n, 1))
		return NewFaultConn(conn, cf), nil
	}
}

// mix64 is a splitmix64 step combining the plan seed with a counter into a
// well-spread per-connection seed.
func mix64(seed, k int64) int64 {
	z := uint64(seed) + uint64(k)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
