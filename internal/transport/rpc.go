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
// used. Every body has exactly one fixed layout. A message with one field
// sends that field raw (Server.Handle, Client.CallContext); any other
// implements WireAppender and WireDecoder (the fragment codec in codec.go,
// the messages' own AppendWire/DecodeWire), which Encode, Decode and the
// typed calls require, so a message without a layout does not compile.
//
// Concurrency: one Client multiplexes any number of concurrent Calls over
// its single connection — requests are pipelined by a writer goroutine and
// responses are routed back to their callers by request ID, in whatever
// order the server produces them. The server handles each request on its
// own goroutine, so a slow handler does not block other requests on the
// same connection. Every call carries its caller's context (CallContext
// and its typed forms), so a hung peer costs one timed-out call, never a
// wedged party. Connections are made by one TLS dial (TLSMaterials.Dial);
// at process start DialTLSBackoff retries it until the peer is up, and
// per-connection counters (Stats) record calls, failures and those retries.
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

const (
	kindRequest  = 1
	kindResponse = 2

	// framePrefix is the length field; frameFixed the fixed fields it
	// counts (ID, kind, code, text length).
	framePrefix = 4
	frameFixed  = 12
)

// frame is one parsed frame. text and body alias buf, the readBody buffer
// the frame arrived in, and big is buf's holder when it is a class buffer
// above bodySeed: whoever holds the frame calls release once both are dead.
type frame struct {
	id   uint64
	kind byte
	code uint8
	text []byte
	body []byte
	buf  []byte
	big  *bigBody
}

// release returns the frame's buffer to its pool.
//
//perf:hotpath
func (f frame) release() { putBody(f.buf, f.big) }

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

// readFrame reads and parses one frame. The caller owns its buffer (see
// frame); on error there is nothing to release. pre is scratch for the
// length prefix that the caller keeps for the connection's life: read into
// a local, the prefix would escape through r and cost every frame an
// allocation.
//
//perf:hotpath
func readFrame(r io.Reader, pre *[framePrefix]byte) (frame, error) {
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
	buf, big, err := readBody(r, int(n))
	if err != nil {
		return frame{}, err
	}
	bodyAt := frameFixed + int(binary.BigEndian.Uint16(buf[10:12]))
	if bodyAt > len(buf) {
		putBody(buf, big)
		return frame{}, fmt.Errorf("transport: frame text of %d bytes overruns %d-byte frame", bodyAt-frameFixed, len(buf))
	}
	return frame{
		id:   binary.BigEndian.Uint64(buf[0:8]),
		kind: buf[8],
		code: buf[9],
		text: buf[frameFixed:bodyAt],
		body: buf[bodyAt:],
		buf:  buf,
		big:  big,
	}, nil
}

// bodySeed is the pooled frame-body buffer size: every body at or under
// it (all control traffic and small fragment frames) is read into a
// recycled buffer of this size, and it doubles as the trust granularity for
// oversized length prefixes (see readBody). Larger bodies use the class
// pools of bufpool.go.
const bodySeed = 1 << seedShift

// bodyPool recycles the seed-sized body buffers. Fixed-size array
// pointers rather than slices, so Put never allocates a slice header and
// a shrunk or re-sliced buffer can't poison the pool.
var bodyPool = sync.Pool{New: func() any { return new([bodySeed]byte) }}

// readBody reads an n-byte frame body. Up to bodySeed it lands in a
// bodyPool buffer. Above it, a length prefix is trusted only to pick a
// buffer the pools already hold: if class(n) has one, the body is read
// straight into it. Otherwise the buffer grows geometrically as bytes
// actually arrive, from a seed buffer through class buffers, each step
// taken from its class pool or allocated and the previous one returned.
// Memory is allocated only as bytes arrive, so even a prefix just under
// MaxFrame from a hostile or corrupt peer costs at most one 64 KiB buffer
// before the read starves and fails — never an up-front
// multi-hundred-MiB allocation.
//
// big is the holder of a class buffer, nil for a seed buffer; the caller
// hands both to putBody when done with the body. On error nothing is
// left to release.
//
//perf:hotpath
func readBody(r io.Reader, n int) (body []byte, big *bigBody, err error) {
	if n <= bodySeed {
		buf := bodyPool.Get().(*[bodySeed]byte)
		body = buf[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			bodyPool.Put(buf)
			return nil, nil, err
		}
		return body, nil, nil
	}
	if big = pooledBig(n); big != nil {
		body = big.b[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			big.put()
			return nil, nil, err
		}
		return body, big, nil
	}
	seed := bodyPool.Get().(*[bodySeed]byte)
	body = seed[:]
	if _, err := io.ReadFull(r, body); err != nil {
		bodyPool.Put(seed)
		return nil, nil, err
	}
	for len(body) < n {
		next := min(2*len(body), n)
		grown := getBig(next)
		read := copy(grown.b, body)
		// The previous step has been copied out; recycle it now so an
		// error mid-grow strands no pooled buffer.
		putBody(body, big)
		big, body = grown, grown.b[:next]
		if _, err := io.ReadFull(r, body[read:]); err != nil {
			big.put()
			return nil, nil, err
		}
	}
	return body, big, nil
}

// getBody returns a pooled buffer that holds n bytes: a seed buffer at or
// under bodySeed, a class buffer above it, with its holder big. The
// caller hands both to putBody when done with it.
//
//perf:hotpath
func getBody(n int) (buf []byte, big *bigBody) {
	if n <= bodySeed {
		return bodyPool.Get().(*[bodySeed]byte)[:], nil
	}
	big = getBig(n)
	return big.b, big
}

// putBody returns a readBody or getBody buffer to its pool: a class buffer through
// its holder big, a seed-sized one to bodyPool. Anything else is left to
// the GC.
//
//perf:hotpath
func putBody(b []byte, big *bigBody) {
	if big != nil {
		big.put()
		return
	}
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
	pre := new([framePrefix]byte)
	for {
		f, err := readFrame(conn, pre)
		if err != nil {
			// Malformed frame, peer close, or server close: drop the
			// connection. Handler goroutines finish via the deferred wait.
			return
		}
		if f.kind != kindRequest || f.code != 0 {
			f.release()
			return
		}
		s.mu.RLock()
		h, ok := s.handlers[string(f.text)]
		s.mu.RUnlock()
		if !ok {
			write(f.id, 0, fmt.Sprintf("transport: unknown method %q", f.text), nil)
			f.release()
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
			f.release()
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

// Encode returns v's fixed layout, for use as a request or response body.
func Encode(v WireAppender) ([]byte, error) { return v.AppendWire(nil) }

// Decode decodes body into v from its fixed layout and nothing else: a
// body in another layout is v's decode error. Nothing decoded aliases body.
func Decode(body []byte, v WireDecoder) error { return v.DecodeWire(body) }

// HandleTyped registers a handler whose request is decoded from its fixed
// layout and whose response is encoded into its own.
func HandleTyped[Req any, Resp WireAppender, PReq Decodes[Req]](s *Server, method string, h func(Req) (Resp, error)) {
	s.Handle(method, func(body []byte) ([]byte, error) {
		var req Req
		if err := PReq(&req).DecodeWire(body); err != nil {
			return nil, fmt.Errorf("decoding request: %w", err)
		}
		resp, err := h(req)
		if err != nil {
			return nil, err
		}
		return resp.AppendWire(nil)
	})
}
