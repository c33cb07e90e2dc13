package transport

import (
	"context"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoReq and echoResp are the typed calls' test messages. Their layout
// is a u16 text length and the text, with nothing after it.
type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

func (r echoReq) AppendWire(dst []byte) ([]byte, error)  { return appendMsg(dst, r.Msg), nil }
func (r *echoReq) DecodeWire(data []byte) (err error)    { r.Msg, err = decodeMsg(data); return err }
func (r echoResp) AppendWire(dst []byte) ([]byte, error) { return appendMsg(dst, r.Msg), nil }
func (r *echoResp) DecodeWire(data []byte) (err error)   { r.Msg, err = decodeMsg(data); return err }

func appendMsg(dst []byte, msg string) []byte {
	return append(binary.LittleEndian.AppendUint16(dst, uint16(len(msg))), msg...)
}

func decodeMsg(data []byte) (string, error) {
	if len(data) < 2 || int(binary.LittleEndian.Uint16(data)) != len(data)-2 {
		return "", fmt.Errorf("echo body of %d bytes does not hold its text", len(data))
	}
	return string(data[2:]), nil
}

// num is the mux and latency tests' message: an int as 8 bytes.
type num int

func (n num) AppendWire(dst []byte) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(dst, uint64(n)), nil
}

func (n *num) DecodeWire(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("num body of %d bytes, want 8", len(data))
	}
	*n = num(binary.LittleEndian.Uint64(data))
	return nil
}

func startEchoServer(t *testing.T) (*Server, *MemListener) {
	t.Helper()
	s := NewServer()
	HandleTyped(s, "echo", func(r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg}, nil
	})
	HandleTyped(s, "fail", func(r echoReq) (echoResp, error) {
		return echoResp{}, fmt.Errorf("boom: %s", r.Msg)
	})
	HandleTyped(s, "fail-coded", func(r echoReq) (echoResp, error) {
		se := &StatusError{Code: 7, Err: errors.New(r.Msg)}
		if r.Msg == "" {
			return echoResp{}, se
		}
		return echoResp{}, fmt.Errorf("handler: %w", se)
	})
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(func() { s.Close() })
	return s, ln
}

func memClient(t *testing.T, ln *MemListener) *Client {
	t.Helper()
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

func TestRoundTrip(t *testing.T) {
	_, ln := startEchoServer(t)
	c := memClient(t, ln)
	resp, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hello" {
		t.Fatalf("resp = %q", resp.Msg)
	}
}

func TestMultipleSequentialCalls(t *testing.T) {
	_, ln := startEchoServer(t)
	c := memClient(t, ln)
	for i := 0; i < 20; i++ {
		msg := fmt.Sprintf("msg-%d", i)
		resp, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Msg != msg {
			t.Fatalf("call %d: resp %q", i, resp.Msg)
		}
	}
}

func TestRemoteError(t *testing.T) {
	_, ln := startEchoServer(t)
	c := memClient(t, ln)
	_, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "fail", echoReq{Msg: "x"})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "boom: x") {
		t.Fatalf("remote error message %q", re.Msg)
	}
	if re.Code != 0 {
		t.Fatalf("unstamped error arrived with code %d", re.Code)
	}
}

// TestRemoteErrorCarriesStatusCode: a StatusError anywhere in the handler
// error's chain sets the code the caller sees; an empty message still
// fails the call.
func TestRemoteErrorCarriesStatusCode(t *testing.T) {
	_, ln := startEchoServer(t)
	c := memClient(t, ln)
	for _, msg := range []string{"x", ""} {
		_, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "fail-coded", echoReq{Msg: msg})
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != 7 {
			t.Fatalf("msg %q: err = %v, want RemoteError with code 7", msg, err)
		}
	}
}

func TestUnknownMethod(t *testing.T) {
	_, ln := startEchoServer(t)
	c := memClient(t, ln)
	_, err := c.CallContext(context.Background(), "nope", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError for unknown method", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, ln := startEchoServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := ln.Dial()
			if err != nil {
				errs <- err
				return
			}
			c := NewClient(conn)
			defer c.Close()
			for i := 0; i < 10; i++ {
				msg := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: msg})
				if err != nil {
					errs <- err
					return
				}
				if resp.Msg != msg {
					errs <- fmt.Errorf("got %q want %q", resp.Msg, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s, ln := startEchoServer(t)
	c := memClient(t, ln)
	if _, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	done := make(chan struct{})
	go func() {
		c.CallContext(context.Background(), "echo", nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("call did not fail after server close")
	}
}

func TestMemListenerClosed(t *testing.T) {
	ln := NewMemListener()
	ln.Close()
	if _, err := ln.Dial(); err == nil {
		t.Fatal("dial succeeded on closed listener")
	}
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept succeeded on closed listener")
	}
	if err := ln.Close(); err != nil { // double close is fine
		t.Fatal(err)
	}
	if ln.Addr().Network() != "mem" {
		t.Fatal("unexpected addr")
	}
}

func TestTLSEndToEnd(t *testing.T) {
	mat, err := NewTLSMaterials("agg-1", []string{"127.0.0.1", "localhost"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := mat.ListenTLS("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	s := NewServer()
	HandleTyped(s, "echo", func(r echoReq) (echoResp, error) { return echoResp{Msg: r.Msg}, nil })
	go s.Serve(ln)
	defer s.Close()

	conn, err := mat.Dial(context.Background(), ln.Addr().String(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	defer c.Close()
	resp, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "secure"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "secure" {
		t.Fatalf("resp %q", resp.Msg)
	}
}

func TestTLSRejectsUntrustedClientPool(t *testing.T) {
	server, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := server.ListenTLS("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	s := NewServer()
	go s.Serve(ln)
	defer s.Close()
	// Client trusting a different CA must fail the handshake. The TLS
	// client error surfaces on first use of the connection.
	conn, err := other.Dial(context.Background(), ln.Addr().String(), "127.0.0.1")
	if err == nil {
		c := NewClient(conn)
		_, err = c.CallContext(context.Background(), "echo", nil)
		c.Close()
	}
	if err == nil {
		t.Fatal("handshake with untrusted CA succeeded")
	}
}

// lateListener is a TLS server's listener whose server comes up late: until
// time up it accepts each TCP connection and drops it, so every failed dial
// attempt before then is counted here.
type lateListener struct {
	net.Listener
	up      time.Time
	cfg     *tls.Config
	dropped atomic.Int64
}

func (l *lateListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if !time.Now().Before(l.up) {
			return tls.Server(conn, l.cfg), nil
		}
		l.dropped.Add(1)
		conn.Close()
	}
}

// serveLate starts an echo server behind a lateListener that comes up
// after delay.
func serveLate(t *testing.T, mat *TLSMaterials, delay time.Duration) *lateListener {
	t.Helper()
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	ln := &lateListener{Listener: tcp, up: time.Now().Add(delay), cfg: mat.ServerConfig()}
	s := NewServer()
	HandleTyped(s, "echo", func(r echoReq) (echoResp, error) { return echoResp{Msg: r.Msg}, nil })
	go s.Serve(ln)
	t.Cleanup(s.Close)
	return ln
}

// The boot dial reaches a server that comes up after it starts, and the
// client's Stats count exactly the attempts that failed on the way.
func TestDialBackoffRecovers(t *testing.T) {
	mat, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln := serveLate(t, mat, 150*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := mat.DialTLSBackoff(ctx, ln.Addr().String(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resp, err := CallTypedContext[echoReq, echoResp](ctx, c, "echo", echoReq{Msg: "late"})
	if err != nil || resp.Msg != "late" {
		t.Fatalf("call after boot dial: %q, %v", resp.Msg, err)
	}
	dropped := ln.dropped.Load()
	if dropped == 0 {
		t.Fatal("no attempt failed: the server was up before the dial")
	}
	if got := c.Stats().Snapshot().Retries; got != dropped {
		t.Fatalf("Stats retries = %d, want the %d failed attempts", got, dropped)
	}
}

// The boot dial fails promptly with the ctx's error once ctx ends, even
// while the peer keeps refusing connections.
func TestDialBackoffHonorsContext(t *testing.T) {
	mat, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	addr := tcp.Addr().String()
	tcp.Close()

	const budget = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	c, err := mat.DialTLSBackoff(ctx, addr, "127.0.0.1")
	if err == nil {
		c.Close()
		t.Fatal("dial to a dead endpoint succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if late := time.Since(start) - budget; late > 500*time.Millisecond {
		t.Fatalf("dial returned %v after its context ended", late)
	}
}

// The boot dial has no attempt cap: against a peer that never comes up it
// outlasts any fixed number of attempts and stops only when ctx ends — the
// deployment-start contract, where the -dial-timeout budget is the limit.
func TestRetryUnlimitedRunsUntilContext(t *testing.T) {
	mat, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln := serveLate(t, mat, time.Hour)
	// The timeout only stops a dial that ignores cancellation; the
	// schedule reaches its sixth attempt by 1.9s at the latest.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const want = 6
	go func() {
		for ln.dropped.Load() < want && ctx.Err() == nil {
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
	}()
	c, err := mat.DialTLSBackoff(ctx, ln.Addr().String(), "127.0.0.1")
	if err == nil {
		c.Close()
		t.Fatal("dial to a server that never comes up succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ln.dropped.Load(); n < want {
		t.Fatalf("%d attempts before the context ended, want at least %d", n, want)
	}
}

// A certificate the dialer does not trust ends the boot dial at once: a
// stale server from another deployment will not start trusting our CA,
// so re-dialing it until the deadline only delays the error.
func TestDialBackoffStopsOnUntrustedCertificate(t *testing.T) {
	server, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewTLSMaterials("agg-1", []string{"127.0.0.1"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := server.ListenTLS("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen on loopback: %v", err)
	}
	s := NewServer()
	go s.Serve(ln)
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	c, err := other.DialTLSBackoff(ctx, ln.Addr().String(), "127.0.0.1")
	if err == nil {
		c.Close()
		t.Fatal("boot dial to a server with an untrusted certificate succeeded")
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("boot dial took %v to give up on an untrusted certificate", took)
	}
	var untrusted *tls.CertificateVerificationError
	if !errors.As(err, &untrusted) {
		t.Fatalf("err = %v, want a *tls.CertificateVerificationError", err)
	}
}

func TestEncodeDecode(t *testing.T) {
	in := echoReq{Msg: "payload"}
	b, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var out echoReq
	if err := Decode(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != in.Msg {
		t.Fatalf("round trip %q -> %q", in.Msg, out.Msg)
	}
	if err := Decode([]byte("garbage"), &out); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestFrameLimit(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		// Write a frame header claiming an oversized body.
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
		a.Write(hdr)
	}()
	if _, err := readFrame(b, new([framePrefix]byte)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// writeCounter records the size of each Write it receives.
type writeCounter struct{ sizes []int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	return len(p), nil
}

// A frame that fits the 64 KiB seed leaves in one Write (one net.Pipe
// rendezvous, one TLS record); one byte more and the body follows its
// header in a second Write instead of being staged.
func TestFrameWriteCount(t *testing.T) {
	fits := bodySeed - framePrefix - frameFixed - len("m")
	for _, tc := range []struct {
		body int
		want []int
	}{
		{0, []int{framePrefix + frameFixed + 1}},
		{fits, []int{bodySeed}},
		{fits + 1, []int{framePrefix + frameFixed + 1, fits + 1}},
	} {
		var w writeCounter
		if err := writeFrame(&w, 1, kindRequest, 0, "m", make([]byte, tc.body)); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(w.sizes) != fmt.Sprint(tc.want) {
			t.Errorf("%d-byte body left in Writes of %v bytes, want %v", tc.body, w.sizes, tc.want)
		}
	}
}
