package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrClientClosed is the sticky error after Close.
var ErrClientClosed = errors.New("transport: client closed")

// Client issues RPC calls over a single multiplexed connection. Any number
// of goroutines may call concurrently: a writer goroutine serializes
// request frames, a reader goroutine routes response frames to their
// waiting callers by request ID, so calls complete in whatever order the
// server answers. A connection-level failure fails every in-flight and
// future call with the same sticky error; a per-call deadline (CallContext)
// abandons only that call and leaves the connection usable.
type Client struct {
	conn net.Conn

	writeq chan *pendingCall
	dead   chan struct{} // closed once the connection is failed

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	nextID  uint64
	err     error // sticky failure

	stats  Stats
	kaOnce sync.Once
}

type pendingCall struct {
	id     uint64
	method string
	body   []byte
	done   chan callResult // buffered; receives exactly one result
}

// callResult is a call's outcome: an error, or the response frame, whose
// buffer the receiver releases.
type callResult struct {
	resp frame
	err  error
}

// NewClient wraps an established connection and starts its reader and
// writer goroutines. Close releases them.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		writeq:  make(chan *pendingCall, 16),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*pendingCall),
	}
	go c.writeLoop()
	go c.readLoop()
	return c
}

// CallContext sends a request and waits until the response arrives, the
// context ends, or the connection fails. A context timeout abandons the
// call (a late response is discarded) without poisoning the connection.
//
// The caller keeps the returned body, so a body that arrived in a pooled
// read buffer is copied out exact-size; a buffer grown for an oversized
// frame is handed over as it is.
func (c *Client) CallContext(ctx context.Context, method string, body []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, method, body)
	if err != nil {
		return nil, err
	}
	if cap(resp.buf) != bodySeed {
		return resp.body, nil
	}
	var out []byte
	if n := len(resp.body); n > 0 {
		out = make([]byte, n)
		copy(out, resp.body)
	}
	putBody(resp.buf)
	return out, nil
}

// roundTrip is CallContext without the copy: the response body aliases the
// read buffer, which the caller hands to putBody when done with it.
func (c *Client) roundTrip(ctx context.Context, method string, body []byte) (frame, error) {
	start := time.Now()
	c.stats.callStarted()
	resp, err := c.call(ctx, method, body)
	c.stats.callDone(start, err, errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	return resp, err
}

func (c *Client) call(ctx context.Context, method string, body []byte) (frame, error) {
	p := &pendingCall{method: method, body: body, done: make(chan callResult, 1)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return frame{}, fmt.Errorf("transport: %s: %w", method, err)
	}
	c.nextID++
	p.id = c.nextID
	c.pending[p.id] = p
	c.mu.Unlock()

	select {
	case c.writeq <- p:
	case <-c.dead:
		c.forget(p.id)
		return frame{}, fmt.Errorf("transport: %s: %w", method, c.Err())
	case <-ctx.Done():
		c.forget(p.id)
		return frame{}, fmt.Errorf("transport: %s: %w", method, ctx.Err())
	}

	select {
	case r := <-p.done:
		if r.err != nil {
			var re *RemoteError
			if errors.As(r.err, &re) {
				return frame{}, r.err
			}
			return frame{}, fmt.Errorf("transport: %s: %w", method, r.err)
		}
		return r.resp, nil
	case <-ctx.Done():
		c.forget(p.id)
		return frame{}, fmt.Errorf("transport: %s: %w", method, ctx.Err())
	}
}

// forget abandons an in-flight call; its eventual response (if any) is
// dropped by the read loop.
func (c *Client) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

func (c *Client) writeLoop() {
	for {
		select {
		case p := <-c.writeq:
			if err := writeFrame(c.conn, p.id, kindRequest, 0, p.method, p.body); err != nil {
				c.fail(fmt.Errorf("send: %w", err))
				return
			}
		case <-c.dead:
			return
		}
	}
}

func (c *Client) readLoop() {
	for {
		resp, err := readFrame(c.conn)
		if err == nil && resp.kind != kindResponse {
			putBody(resp.buf)
			err = fmt.Errorf("transport: unexpected frame kind %d", resp.kind)
		}
		if err != nil {
			c.fail(fmt.Errorf("recv: %w", err))
			return
		}
		c.mu.Lock()
		p, ok := c.pending[resp.id]
		delete(c.pending, resp.id)
		c.mu.Unlock()
		switch {
		case !ok:
			putBody(resp.buf) // abandoned (deadline), stale or a replay; discard
		case len(resp.text) != 0 || resp.code != 0:
			p.done <- callResult{err: &RemoteError{Method: p.method, Msg: string(resp.text), Code: resp.code}}
			putBody(resp.buf)
		default:
			p.done <- callResult{resp: resp}
		}
	}
}

// fail marks the connection broken with a sticky error, closes it, and
// fails every in-flight call. Idempotent; the first error wins.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
		close(c.dead)
		c.conn.Close()
	}
	sticky := c.err
	calls := make([]*pendingCall, 0, len(c.pending))
	for id, p := range c.pending {
		delete(c.pending, id)
		calls = append(calls, p)
	}
	c.mu.Unlock()
	for _, p := range calls {
		p.done <- callResult{err: sticky}
	}
}

// Err returns the sticky connection error, or nil while the client is
// healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Ping round-trips the server's built-in health method.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.CallContext(ctx, MethodPing, nil)
	return err
}

// EnableKeepAlive starts a background health check that pings the server
// every interval and fails the connection if a ping takes longer than
// timeout. Safe to call once per client; later calls are no-ops.
func (c *Client) EnableKeepAlive(interval, timeout time.Duration) {
	if interval <= 0 {
		return
	}
	if timeout <= 0 {
		timeout = interval
	}
	c.kaOnce.Do(func() {
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-c.dead:
					return
				case <-t.C:
					//lint:ignore ctxplumb the keepalive loop outlives any single caller by design; its pings are bounded by the explicit timeout instead
					ctx, cancel := context.WithTimeout(context.Background(), timeout)
					err := c.Ping(ctx)
					cancel()
					if err != nil && c.Err() == nil {
						c.fail(fmt.Errorf("keepalive: %w", err))
						return
					}
				}
			}
		}()
	})
}

// Stats exposes this connection's call counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Close fails all in-flight calls and closes the underlying connection.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// CallTypedContext performs a call with the request run through Encode and
// the response through Decode, straight from the read buffer.
func CallTypedContext[Req, Resp any](ctx context.Context, c *Client, method string, req Req) (Resp, error) {
	var zero Resp
	body, err := Encode(req)
	if err != nil {
		return zero, err
	}
	out, err := c.roundTrip(ctx, method, body)
	if err != nil {
		return zero, err
	}
	var resp Resp
	err = Decode(out.body, &resp)
	putBody(out.buf)
	if err != nil {
		return zero, err
	}
	return resp, nil
}
