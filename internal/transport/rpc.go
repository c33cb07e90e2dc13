// Package transport is the wire layer of the reproduction: a small
// request/response RPC protocol (length-prefixed gob frames) over TCP with
// TLS, standing in for the gRPC+TLS channels of the paper's implementation
// (§5). It also provides an in-memory listener so protocol tests need no
// network.
//
// Frame format: 4-byte big-endian length, then a gob-encoded envelope.
// Requests carry a method name and an opaque body; responses carry a body,
// or an error string plus a one-byte status code (RemoteError.Code). Bodies
// have exactly one encoding per message type (Encode/Decode): the
// fixed-layout codec of codec.go for data-plane fragment messages, gob for
// the control plane.
//
// Concurrency: one Client multiplexes any number of concurrent Calls over
// its single connection — requests are pipelined by a writer goroutine and
// responses are routed back to their callers by request ID, in whatever
// order the server produces them. The server handles each request on its
// own goroutine, so a slow handler does not block other requests on the
// same connection. Per-call deadlines (CallContext), keepalive health
// checks (EnableKeepAlive), dial/backoff helpers (DialBackoff, Retry), and
// per-connection counters (Stats) make the layer deadline-aware end to
// end: a hung peer costs one timed-out call, never a wedged party.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

// MaxFrame bounds a single message (guards against corrupt length
// prefixes). Model fragments for the largest zoo models fit comfortably.
const MaxFrame = 1 << 28 // 256 MiB

// MethodPing is the built-in health-check method every Server answers
// without a registered handler; Client.Ping and keepalive use it.
const MethodPing = "transport.Ping"

type request struct {
	ID     uint64
	Method string
	Body   []byte
}

type response struct {
	ID   uint64
	Body []byte
	Err  string
	Code uint8 // status code of a failed call; 0 = unclassified
}

// frameBufPool recycles the per-frame encode buffers: a frame is fully
// written to the connection before writeFrame returns, so the buffer's
// lifetime is exactly one call.
var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

//perf:hotpath
func writeFrame(w io.Writer, v any) error {
	buf := frameBufPool.Get().(*bytes.Buffer)
	defer frameBufPool.Put(buf)
	buf.Reset()
	if err := gob.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	if buf.Len() > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", buf.Len())
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(buf.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

//perf:hotpath
func readFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	body, err := readBody(r, int(n))
	if err != nil {
		return err
	}
	// The decode copies every field out of body (gob never aliases its
	// input), so the buffer's lifetime ends here and it can go back to
	// the pool even on decode error.
	err = gob.NewDecoder(bytes.NewReader(body)).Decode(v)
	putBody(body)
	return err
}

// bodySeed is the pooled frame-body buffer size: every body at or under
// it (all control traffic and typical fragment frames) is read into a
// recycled buffer, and it doubles as the trust granularity for oversized
// length prefixes (see readBody).
const bodySeed = 64 << 10

// bodyPool recycles the seed-sized body buffers. Fixed-size array
// pointers rather than slices, so Put never allocates a slice header and
// a shrunk or re-sliced buffer can't poison the pool.
var bodyPool = sync.Pool{New: func() any { return new([bodySeed]byte) }}

// readBody reads an n-byte frame body, growing the buffer geometrically
// as bytes actually arrive instead of trusting the length prefix up
// front. MaxFrame bounds n, but even a prefix just under the bound from
// a hostile or corrupt peer can then cost at most one 64 KiB buffer
// before the read starves and fails — never an up-front multi-hundred-MiB
// allocation. Applies identically whether the body carries a gob envelope
// or a fixed-layout codec payload.
//
// Bodies up to bodySeed come from bodyPool; the caller must hand the
// returned slice to putBody when done with it (oversized bodies are
// allocated fresh and putBody ignores them).
//
//perf:hotpath
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := bodyPool.Get().(*[bodySeed]byte)
	if n <= bodySeed {
		body := buf[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			bodyPool.Put(buf)
			return nil, err
		}
		return body, nil
	}
	body := buf[:bodySeed]
	if _, err := io.ReadFull(r, body); err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	for len(body) < n {
		next := 2 * len(body)
		if next > n {
			next = n
		}
		//lint:ignore allocfree oversized-frame grow path: >64 KiB bodies are rare, and the doubling is what keeps a hostile length prefix from costing a giant up-front allocation
		grown := make([]byte, next)
		read := copy(grown, body)
		if read == bodySeed {
			// The seed chunk has been copied out; recycle it now so an
			// error mid-grow doesn't strand the pooled buffer.
			bodyPool.Put(buf)
		}
		body = grown
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// putBody returns a readBody buffer to the pool. Only exactly seed-sized
// backing arrays are pooled: oversized grow-path buffers (and anything
// else) are left to the GC.
//
//perf:hotpath
func putBody(b []byte) {
	if cap(b) != bodySeed {
		return
	}
	bodyPool.Put((*[bodySeed]byte)(b[:bodySeed]))
}

// Handler processes one request body and returns a response body.
type Handler func(body []byte) ([]byte, error)

// Server dispatches RPC requests to registered handlers. Each request runs
// on its own goroutine and responses are written back as handlers finish,
// so responses on one connection may be out of order relative to their
// requests — the multiplexed Client matches them up by ID.
type Server struct {
	mu       sync.RWMutex
	handlers map[string]Handler

	lnMu      sync.Mutex
	listeners []net.Listener
	conns     map[net.Conn]bool
	closed    bool
	wg        sync.WaitGroup
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{handlers: make(map[string]Handler), conns: make(map[net.Conn]bool)}
}

// Handle registers a handler for a method name, replacing any previous one.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve accepts connections from ln until the listener or server closes.
// It blocks; run it in a goroutine.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		ln.Close()
		return errors.New("transport: server closed")
	}
	s.listeners = append(s.listeners, ln)
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return errors.New("transport: server closed")
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.lnMu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	var (
		wmu sync.Mutex     // serializes response frames on conn
		hwg sync.WaitGroup // in-flight handler goroutines
	)
	defer func() {
		hwg.Wait()
		conn.Close()
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
		s.wg.Done()
	}()
	write := func(resp *response) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(conn, resp); err != nil {
			// Unblock the read loop; in-flight handlers drain into
			// writes that fail the same way.
			conn.Close()
		}
	}
	for {
		var req request
		if err := readFrame(conn, &req); err != nil {
			// Malformed frame, peer close, or server close: drop the
			// connection. Handler goroutines finish via the deferred wait.
			return
		}
		if req.Method == MethodPing {
			write(&response{ID: req.ID})
			continue
		}
		s.mu.RLock()
		h, ok := s.handlers[req.Method]
		s.mu.RUnlock()
		if !ok {
			write(&response{ID: req.ID, Err: fmt.Sprintf("transport: unknown method %q", req.Method)})
			continue
		}
		hwg.Add(1)
		go func(req request) {
			defer hwg.Done()
			resp := response{ID: req.ID}
			func() {
				defer func() {
					if r := recover(); r != nil {
						resp.Body, resp.Err = nil, fmt.Sprintf("transport: handler %s panicked: %v", req.Method, r)
					}
				}()
				if body, err := h(req.Body); err != nil {
					resp.Err = err.Error()
					var se *StatusError
					if errors.As(err, &se) {
						resp.Code = se.Code
					}
				} else {
					resp.Body = body
				}
			}()
			write(&resp)
		}(req)
	}
}

// Close shuts down all listeners and live connections and waits for
// connection goroutines to finish.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
	s.wg.Wait()
}

// RemoteError is an error reported by the remote handler. Code is the
// status code the handler attached with a StatusError (0 = none): callers
// classify a remote failure by Code, never by the text of Msg, which can
// echo peer-chosen strings.
type RemoteError struct {
	Method string
	Msg    string
	Code   uint8
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("transport: remote %s: %s", e.Method, e.Msg)
}

// StatusError is how a handler attaches a status code to the error it
// returns: the server copies Code into the response envelope and the
// caller finds it in RemoteError.Code. The codes belong to the protocol
// served (core keeps the aggregator's table); 0 means unclassified.
type StatusError struct {
	Code uint8
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Encode encodes v for use as a request or response body: the fixed-layout
// codec for data-plane messages implementing WireAppender, gob for
// everything else (the control plane).
func Encode(v any) ([]byte, error) {
	if wa, ok := v.(WireAppender); ok {
		return wa.AppendWire(nil)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode decodes body into v, by the same rule as Encode: a WireDecoder
// takes the fixed-layout codec and nothing else — a body without the codec
// magic is its decode error, not a gob retry.
func Decode(body []byte, v any) error {
	if wd, ok := v.(WireDecoder); ok {
		return wd.DecodeWire(body)
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// HandleTyped registers a handler whose request is run through Decode and
// whose response through Encode.
func HandleTyped[Req, Resp any](s *Server, method string, h func(Req) (Resp, error)) {
	s.Handle(method, func(body []byte) ([]byte, error) {
		var req Req
		if err := Decode(body, &req); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		resp, err := h(req)
		if err != nil {
			return nil, err
		}
		return Encode(resp)
	})
}
