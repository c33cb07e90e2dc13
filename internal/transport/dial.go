package transport

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// Backoff is a capped exponential backoff schedule: the delay doubles from
// Initial up to Max, each one jittered by ±20%. The zero value starts at
// 50ms and caps at 2s.
type Backoff struct {
	// Initial is the delay after the first failure; <= 0 means 50ms.
	Initial time.Duration
	// Max caps the delay; <= 0 means 2s.
	Max time.Duration
}

// Delay returns the jittered sleep before attempt i+1 (i counts failures
// so far, starting at 0).
func (b Backoff) Delay(i int) time.Duration { return b.delayRand(i, rand.Float64) }

// delayRand is Delay with an injectable uniform-[0,1) source, so the
// schedule's bounds and growth are testable under a seeded RNG.
func (b Backoff) delayRand(i int, randFloat func() float64) time.Duration {
	initial, max := b.Initial, b.Max
	if initial <= 0 {
		initial = 50 * time.Millisecond
	}
	if max <= 0 {
		max = 2 * time.Second
	}
	d := float64(initial)
	for ; i > 0 && d < float64(max); i-- {
		d *= 2
	}
	d = min(d, float64(max))
	// Symmetric jitter decorrelates fleets of clients reconnecting at once.
	d *= 1 + 0.2*(2*randFloat()-1)
	return time.Duration(d)
}

// Dial makes one TLS connection to addr, trusting only the minted CA and
// pinning serverName; ctx bounds both the TCP connect and the handshake.
func (m *TLSMaterials) Dial(ctx context.Context, addr, serverName string) (net.Conn, error) {
	d := &tls.Dialer{Config: m.ClientConfig(serverName)}
	return d.DialContext(ctx, "tcp", addr)
}

// DialTLSBackoff is the boot dial, for peers that may not be listening yet
// when this process starts: it retries Dial on the zero-value Backoff until
// a connection is made or ctx ends. A certificate these materials do not
// trust ends it at once, since waiting will not make a peer from another
// deployment trustworthy. Each failed attempt counts as one of the
// returned client's Stats retries.
func (m *TLSMaterials) DialTLSBackoff(ctx context.Context, addr, serverName string) (*Client, error) {
	for failed := 0; ; failed++ {
		conn, err := m.Dial(ctx, addr, serverName)
		if err == nil {
			c := NewClient(conn)
			c.stats.retries.Add(int64(failed))
			return c, nil
		}
		var untrusted *tls.CertificateVerificationError
		if errors.As(err, &untrusted) {
			return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("transport: dial %s: %w", addr, errors.Join(ctx.Err(), err))
		case <-time.After(Backoff{}.Delay(failed)):
		}
	}
}
