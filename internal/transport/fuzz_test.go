package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzFrameRoundTrip: any frame written must read back identically, field
// for field, and consume exactly the bytes written.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(1), byte(kindRequest), byte(0), "method", []byte("body"))
	f.Add(uint64(0), byte(0), byte(0), "", []byte{})
	f.Add(uint64(1<<40), byte(kindRequest), byte(0), "deta.Upload", []byte{0xFF, 0x00, 0x01})
	f.Add(uint64(7), byte(kindResponse), byte(6), "round abandoned", []byte(nil))
	f.Add(uint64(8), byte(kindResponse), byte(0), "", bytes.Repeat([]byte{0xAB}, bodySeed))  // header-then-body path
	f.Add(uint64(9), byte(0xFF), byte(0xFF), strings.Repeat("t", math.MaxUint16), []byte{1}) // longest text
	f.Add(uint64(10), byte(kindRequest), byte(0), strings.Repeat("t", math.MaxUint16+1), []byte{})
	f.Fuzz(func(t *testing.T, id uint64, kind, code byte, text string, body []byte) {
		var buf bytes.Buffer
		err := writeFrame(&buf, id, kind, code, text, body)
		if len(text) > math.MaxUint16 {
			if err == nil {
				t.Fatalf("text of %d bytes written into a uint16 length field", len(text))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		defer putBody(out.buf)
		if out.id != id || out.kind != kind || out.code != code || string(out.text) != text || !bytes.Equal(out.body, body) {
			t.Fatalf("round trip mismatch: wrote (%d, %d, %d, %q, %d-byte body), read %+v", id, kind, code, text, len(body), out)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d bytes of the frame left unread", buf.Len())
		}
	})
}

// frameWithLength prefixes payload with an arbitrary (possibly lying)
// length header — the building block for truncation/oversize seeds.
func frameWithLength(n uint32, payload []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], n)
	return append(hdr[:], payload...)
}

// rawFrame returns the wire bytes of one well-formed frame.
func rawFrame(tb testing.TB, id uint64, kind, code byte, text string, body []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, id, kind, code, text, body); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// lyingTextFrame is an honest-length frame whose text length field claims
// more bytes than the frame holds.
func lyingTextFrame(tb testing.TB) []byte {
	raw := rawFrame(tb, 1, kindRequest, 0, "echo", []byte("x"))
	binary.BigEndian.PutUint16(raw[14:16], 6) // "echo"+"x" is only 5
	return raw
}

// FuzzFrameGarbage: arbitrary bytes on the wire must error cleanly. Seeds
// cover the malformed-frame families: truncated bodies (header promises
// more than arrives), oversized length prefixes (beyond MaxFrame), lengths
// shorter than the fixed header, a text length overrunning its frame, and
// kind bytes no peer sends.
func FuzzFrameGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})                                   // length shorter than the header
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})                           // oversized length prefix
	f.Add(frameWithLength(100, []byte("short")))                    // truncated body
	f.Add(frameWithLength(1<<28+1, nil))                            // just over MaxFrame
	f.Add(frameWithLength(5, []byte{0x01, 0x02, 0x03, 0x04, 0x05})) // honest length, still shorter than the header
	f.Add([]byte{0, 0, 0, 0})                                       // empty frame
	f.Add(frameWithLength(frameFixed-1, make([]byte, frameFixed-1)))
	f.Add(lyingTextFrame(f))
	f.Add(rawFrame(f, 1, kindResponse, 0, "", []byte("x"))) // wrong kind for a server, right for a client
	f.Add(rawFrame(f, 1, 0, 0, "echo", nil))                // unknown kind
	f.Add(rawFrame(f, 1, 0xFF, 0xFF, "echo", nil))
	// Hostile-but-legal length prefixes: within MaxFrame, so the reader
	// enters the chunked body path, but the body never arrives. The
	// chunked allocator must pay at most its 64KiB seed before the read
	// starves — a 256MiB up-front make here would be a trivial memory DoS.
	f.Add(frameWithLength(1<<28, nil))                             // exactly MaxFrame, zero bytes follow
	f.Add(frameWithLength(1<<27, []byte("tiny")))                  // huge promise, 4 bytes arrive
	f.Add(frameWithLength(1<<20, bytes.Repeat([]byte{0xAA}, 100))) // 1MiB promise, 100 arrive
	f.Fuzz(func(t *testing.T, raw []byte) {
		out, err := readFrame(bytes.NewReader(raw)) // must not panic
		if err != nil {
			return
		}
		defer putBody(out.buf)
		// The layout is canonical: a frame that parses re-encodes to the
		// very bytes it was read from.
		var buf bytes.Buffer
		if werr := writeFrame(&buf, out.id, out.kind, out.code, string(out.text), out.body); werr != nil {
			t.Fatalf("parsed frame failed to re-encode: %v", werr)
		}
		if !bytes.HasPrefix(raw, buf.Bytes()) {
			t.Fatalf("parsed frame re-encodes to different bytes")
		}
	})
}

// A length prefix at the limit followed by nothing must cost at most the
// one pooled 64 KiB seed buffer before the read starves.
func TestHostilePrefixCostsOneSeedBuffer(t *testing.T) {
	raw := frameWithLength(MaxFrame, nil)
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ { // TotalAlloc is process-wide; the quietest run is the reader's own cost
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("frame with no body behind its prefix was accepted")
		}
		if d := after.TotalAlloc - before.TotalAlloc; d < least {
			least = d
		}
	}
	if least > bodySeed+4096 {
		t.Fatalf("a starved %d-byte prefix allocated %d bytes, want at most one %d-byte buffer", MaxFrame, least, bodySeed)
	}
}

// FuzzServerConnGarbage feeds raw fuzzed bytes to a live server connection
// and asserts the server neither panics nor leaks the connection: a
// malformed frame makes the server drop the connection, and Server.Close
// (which waits for every connection goroutine) always returns.
func FuzzServerConnGarbage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add(frameWithLength(1000, []byte("truncated")))
	f.Add(append([]byte(nil), 0, 0, 0, 2, 0xFF, 0xFF))
	f.Add(lyingTextFrame(f))
	f.Add(rawFrame(f, 1, kindResponse, 0, "echo", []byte("x"))) // a response sent to a server
	f.Add(rawFrame(f, 1, 7, 0, "echo", []byte("x")))            // unknown kind
	f.Add(rawFrame(f, 1, kindRequest, 3, "echo", []byte("x")))  // status code on a request
	// A valid echo request followed by garbage: the server must answer the
	// first and then close on the second.
	valid := rawFrame(f, 1, kindRequest, 0, "echo", []byte("x"))
	f.Add(append(append([]byte(nil), valid...), 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := NewServer()
		s.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
		ln := NewMemListener()
		done := make(chan struct{})
		go func() { s.Serve(ln); close(done) }()

		conn, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(500 * time.Millisecond))
		go func() {
			conn.Write(raw)
			// Half of the fuzz inputs are valid prefixes of longer frames;
			// closing marks the stream truncated so the server unblocks.
			conn.Close()
		}()
		// Drain whatever the server sends until it closes our connection
		// (clean close) or the deadline proves it wrote nothing.
		io.Copy(io.Discard, conn)
		conn.Close()

		// Close must reap every connection goroutine; a hang here means a
		// handler or serveConn leaked on malformed input.
		s.Close()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("server accept loop did not exit after Close")
		}
	})
}
