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

	stats Stats
}

// A pendingCall's buf is the pooled buffer its body was encoded into, nil
// when the caller owns body, and big is buf's holder when it is a class
// buffer: the writer hands both to putBody once the frame is written.
type pendingCall struct {
	id     uint64
	method string
	body   []byte
	buf    []byte
	big    *bigBody
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
// The caller keeps the returned body, so it is always copied out of the
// pooled read buffer exact-size and the buffer recycled: no pooled buffer,
// nor its slack, escapes to a caller.
func (c *Client) CallContext(ctx context.Context, method string, body []byte) ([]byte, error) {
	resp, err := c.roundTrip(ctx, method, body, nil, nil)
	if err != nil {
		return nil, err
	}
	var out []byte
	if n := len(resp.body); n > 0 {
		out = make([]byte, n)
		copy(out, resp.body)
	}
	resp.release()
	return out, nil
}

// roundTrip is CallContext without the copy: the response body aliases the
// read buffer, which the caller releases when done with it. buf and big,
// when set, are the pooled buffer body was encoded into (see pendingCall);
// the writer returns it to its pool once the request frame is written.
func (c *Client) roundTrip(ctx context.Context, method string, body, buf []byte, big *bigBody) (frame, error) {
	start := time.Now()
	c.stats.callStarted()
	resp, err := c.call(ctx, method, body, buf, big)
	c.stats.callDone(start, err, errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	return resp, err
}

// call queues the request for the writer. A call abandoned before the
// writer takes it leaves buf to the GC.
func (c *Client) call(ctx context.Context, method string, body, buf []byte, big *bigBody) (frame, error) {
	p := &pendingCall{method: method, body: body, buf: buf, big: big, done: make(chan callResult, 1)}
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
			err := writeFrame(c.conn, p.id, kindRequest, 0, p.method, p.body)
			// An io.Writer must not retain the bytes it was passed, so the
			// request buffer is free once writeFrame returns, and only then.
			putBody(p.buf, p.big)
			if err != nil {
				c.fail(fmt.Errorf("send: %w", err))
				return
			}
		case <-c.dead:
			return
		}
	}
}

func (c *Client) readLoop() {
	pre := new([framePrefix]byte)
	for {
		resp, err := readFrame(c.conn, pre)
		if err == nil && resp.kind != kindResponse {
			resp.release()
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
			resp.release() // abandoned (deadline), stale or a replay; discard
		case len(resp.text) != 0 || resp.code != 0:
			p.done <- callResult{err: &RemoteError{Method: p.method, Msg: string(resp.text), Code: resp.code}}
			resp.release()
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

// Stats exposes this connection's call counters.
func (c *Client) Stats() *Stats { return &c.stats }

// Close fails all in-flight calls and closes the underlying connection.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// CallTypedContext performs a call with the request encoded in its fixed
// layout and the response decoded from its own, straight from the read
// buffer. The request is encoded into a pooled seed buffer (see
// CallSizedContext).
func CallTypedContext[Req WireAppender, Resp any, PResp Decodes[Resp]](ctx context.Context, c *Client, method string, req Req) (Resp, error) {
	return CallSizedContext[Req, Resp, PResp](ctx, c, method, req, 0)
}

// CallSizedContext is CallTypedContext for a request whose encoding is
// about size bytes long (a fragment upload). The request is encoded into a
// pooled buffer, a seed buffer at or under bodySeed and a class buffer
// above it, which the client's writer returns to its pool once the frame
// is written.
func CallSizedContext[Req WireAppender, Resp any, PResp Decodes[Resp]](ctx context.Context, c *Client, method string, req Req, size int) (Resp, error) {
	var zero Resp
	buf, big := getBody(size)
	// Should the encoding outgrow size, body is a buffer of its own and
	// buf goes back unused.
	body, err := req.AppendWire(buf[:0])
	if err != nil {
		putBody(buf, big)
		return zero, err
	}
	out, err := c.roundTrip(ctx, method, body, buf, big)
	if err != nil {
		return zero, err
	}
	var resp Resp
	err = PResp(&resp).DecodeWire(out.body)
	out.release()
	if err != nil {
		return zero, err
	}
	return resp, nil
}
