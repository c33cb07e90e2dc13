// Package transport is the wire layer of the reproduction: a small
// request/response RPC protocol (fixed-layout frames) over TCP with TLS,
// standing in for the gRPC+TLS channels of the paper's implementation
// (§5). It also provides an in-memory listener so protocol tests need no
// network.
//
// Frame format (all fields big-endian):
//
//	offset  size  field
//	0       4     length of everything after this field (12 + t + body)
//	4       8     request ID
//	12      1     kind: 1 = request, 2 = response; it doubles as the
//	              protocol version, so any other value drops the connection
//	13      1     status code (RemoteError.Code); 0 on a request and on a
//	              successful response
//	14      2     text length t
//	16      t     text: the method name on a request, the error message on
//	              a response
//	16+t    ...   body, to the end of the frame
//
// Every length is checked against the bytes actually present before it is
// used. Bodies have exactly one encoding per message type (Encode/Decode):
// a fixed layout for every message exchanged per round (codec.go and the
// messages' own AppendWire/DecodeWire), gob for the rest.
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
//
// Duplicate delivery: a frame leaves in one Write, so a link that repeats a
// Write replays a well-formed frame. TLS rejects replayed records beneath
// this layer; should one arrive anyway the contract is no hang, no panic
// and never a wrong answer: the server runs the handler once per delivered
// request (the aggregator's methods are idempotent by design), and the
// client discards a response whose ID is not pending, so each call still
// returns its own answer or an error.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// MaxFrame bounds a single message (guards against corrupt length
// prefixes). Model fragments for the largest zoo models fit comfortably.
const MaxFrame = 1 << 28 // 256 MiB

// MethodPing is the built-in health-check method every Server answers
// without a registered handler; Client.Ping and keepalive use it.
const MethodPing = "transport.Ping"

const (
	kindRequest  = 1
	kindResponse = 2

	// framePrefix is the length field; frameFixed the fixed fields it
	// counts (ID, kind, code, text length).
	framePrefix = 4
	frameFixed  = 12
)

// frame is one parsed frame. text and body alias buf, the readBody buffer
// the frame arrived in: whoever holds the frame hands buf to putBody once
// both are dead.
type frame struct {
	id   uint64
	kind byte
	code uint8
	text []byte
	body []byte
	buf  []byte
}

// frameBufPool recycles the buffers frames are assembled in: a frame is
// fully written to the connection before writeFrame returns, so the
// buffer's lifetime is exactly one call. A frame larger than bodySeed
// stages only its header here, so no pooled buffer outgrows bodySeed.
var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeFrame sends one frame. Each Write is a net.Pipe rendezvous and a TLS
// record, so a frame that fits bodySeed is assembled and leaves in one; a
// larger body follows its header in a second Write with no staging copy.
//
//perf:hotpath
func writeFrame(w io.Writer, id uint64, kind byte, code uint8, text string, body []byte) error {
	if len(text) > math.MaxUint16 {
		return fmt.Errorf("transport: frame text of %d bytes exceeds uint16 length field", len(text))
	}
	n := frameFixed + len(text) + len(body)
	if n > MaxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	var hdr [framePrefix + frameFixed]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(n))
	binary.BigEndian.PutUint64(hdr[4:12], id)
	hdr[12], hdr[13] = kind, code
	binary.BigEndian.PutUint16(hdr[14:16], uint16(len(text)))

	buf := frameBufPool.Get().(*bytes.Buffer)
	defer frameBufPool.Put(buf)
	buf.Reset()
	buf.Write(hdr[:])
	buf.WriteString(text)
	if framePrefix+n > bodySeed {
		if _, err := w.Write(buf.Bytes()); err != nil {
			return err
		}
		_, err := w.Write(body)
		return err
	}
	buf.Write(body)
	_, err := w.Write(buf.Bytes())
	return err
}

// readFrame reads and parses one frame. The caller owns f.buf (see frame);
// on error there is nothing to release.
//
//perf:hotpath
func readFrame(r io.Reader) (frame, error) {
	var pre [framePrefix]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(pre[:])
	if n > MaxFrame {
		return frame{}, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit", n)
	}
	if n < frameFixed {
		return frame{}, fmt.Errorf("transport: incoming frame of %d bytes is shorter than its header", n)
	}
	buf, err := readBody(r, int(n))
	if err != nil {
		return frame{}, err
	}
	bodyAt := frameFixed + int(binary.BigEndian.Uint16(buf[10:12]))
	if bodyAt > len(buf) {
		putBody(buf)
		return frame{}, fmt.Errorf("transport: frame text of %d bytes overruns %d-byte frame", bodyAt-frameFixed, len(buf))
	}
	return frame{
		id:   binary.BigEndian.Uint64(buf[0:8]),
		kind: buf[8],
		code: buf[9],
		text: buf[frameFixed:bodyAt],
		body: buf[bodyAt:],
		buf:  buf,
	}, nil
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
// allocation.
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

// Handler processes one request body and returns a response body. body
// aliases the connection's pooled read buffer: it is valid until the
// handler returns (and, for a handler that returns a slice of it, until the
// response has been written) and must not be retained after that.
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
	write := func(id uint64, code uint8, text string, body []byte) {
		if len(text) > math.MaxUint16 {
			text = text[:math.MaxUint16]
		}
		wmu.Lock()
		defer wmu.Unlock()
		if err := writeFrame(conn, id, kindResponse, code, text, body); err != nil {
			// Unblock the read loop; in-flight handlers drain into
			// writes that fail the same way.
			conn.Close()
		}
	}
	for {
		f, err := readFrame(conn)
		if err != nil {
			// Malformed frame, peer close, or server close: drop the
			// connection. Handler goroutines finish via the deferred wait.
			return
		}
		if f.kind != kindRequest || f.code != 0 {
			putBody(f.buf)
			return
		}
		if string(f.text) == MethodPing {
			write(f.id, 0, "", nil)
			putBody(f.buf)
			continue
		}
		s.mu.RLock()
		h, ok := s.handlers[string(f.text)]
		s.mu.RUnlock()
		if !ok {
			write(f.id, 0, fmt.Sprintf("transport: unknown method %q", f.text), nil)
			putBody(f.buf)
			continue
		}
		hwg.Add(1)
		go func() {
			defer hwg.Done()
			var (
				body []byte
				text string
				code uint8
			)
			func() {
				defer func() {
					if r := recover(); r != nil {
						body, code = nil, 0
						text = fmt.Sprintf("transport: handler %s panicked: %v", f.text, r)
					}
				}()
				out, err := h(f.body)
				if err != nil {
					text = err.Error()
					var se *StatusError
					if errors.As(err, &se) {
						code = se.Code
					}
				} else {
					body = out
				}
			}()
			write(f.id, code, text, body)
			// Only now: an echoing handler's response is its request body.
			putBody(f.buf)
		}()
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
// returns: the server copies Code into the response frame's header and the
// caller finds it in RemoteError.Code. The codes belong to the protocol
// served (core keeps the aggregator's table); 0 means unclassified.
type StatusError struct {
	Code uint8
	Err  error
}

func (e *StatusError) Error() string { return e.Err.Error() }
func (e *StatusError) Unwrap() error { return e.Err }

// Encode encodes v for use as a request or response body: its own fixed
// layout for a message implementing WireAppender (every message exchanged
// per round), gob for everything else (attestation, registration).
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
// takes its fixed layout and nothing else — a body in another encoding is
// its decode error, not a gob retry. Nothing decoded aliases body.
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
