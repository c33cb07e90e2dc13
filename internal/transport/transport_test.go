package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

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

	c, err := mat.DialTLSContext(context.Background(), ln.Addr().String(), "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
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
	c, err := other.DialTLSContext(context.Background(), ln.Addr().String(), "127.0.0.1")
	if err == nil {
		_, err = c.CallContext(context.Background(), "echo", nil)
		c.Close()
	}
	if err == nil {
		t.Fatal("handshake with untrusted CA succeeded")
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
	if _, err := readFrame(b); err == nil {
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
