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
	req  request
	done chan callResult // buffered; receives exactly one result
}

type callResult struct {
	body []byte
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
func (c *Client) CallContext(ctx context.Context, method string, body []byte) ([]byte, error) {
	start := time.Now()
	c.stats.callStarted()
	out, err := c.call(ctx, method, body)
	c.stats.callDone(start, err, errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	return out, err
}

func (c *Client) call(ctx context.Context, method string, body []byte) ([]byte, error) {
	p := &pendingCall{done: make(chan callResult, 1)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, fmt.Errorf("transport: %s: %w", method, err)
	}
	c.nextID++
	p.req = request{ID: c.nextID, Method: method, Body: body}
	c.pending[p.req.ID] = p
	c.mu.Unlock()

	select {
	case c.writeq <- p:
	case <-c.dead:
		c.forget(p.req.ID)
		return nil, fmt.Errorf("transport: %s: %w", method, c.Err())
	case <-ctx.Done():
		c.forget(p.req.ID)
		return nil, fmt.Errorf("transport: %s: %w", method, ctx.Err())
	}

	select {
	case r := <-p.done:
		if r.err != nil {
			var re *RemoteError
			if errors.As(r.err, &re) {
				return nil, r.err
			}
			return nil, fmt.Errorf("transport: %s: %w", method, r.err)
		}
		return r.body, nil
	case <-ctx.Done():
		c.forget(p.req.ID)
		return nil, fmt.Errorf("transport: %s: %w", method, ctx.Err())
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
			if err := writeFrame(c.conn, &p.req); err != nil {
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
		var resp response
		if err := readFrame(c.conn, &resp); err != nil {
			c.fail(fmt.Errorf("recv: %w", err))
			return
		}
		c.mu.Lock()
		p, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if !ok {
			continue // abandoned (deadline) or stale; discard
		}
		if resp.Err != "" || resp.Code != 0 {
			p.done <- callResult{err: &RemoteError{Method: p.req.Method, Msg: resp.Err, Code: resp.Code}}
		} else {
			p.done <- callResult{body: resp.Body}
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

// CallTypedContext performs a CallContext with the request run through
// Encode and the response through Decode.
func CallTypedContext[Req, Resp any](ctx context.Context, c *Client, method string, req Req) (Resp, error) {
	var zero Resp
	body, err := Encode(req)
	if err != nil {
		return zero, err
	}
	out, err := c.CallContext(ctx, method, body)
	if err != nil {
		return zero, err
	}
	var resp Resp
	if err := Decode(out, &resp); err != nil {
		return zero, err
	}
	return resp, nil
}
