package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestResponsesRoutedByID drives the client against a hand-rolled server
// that deliberately answers out of order: two concurrent calls, responses
// written in reverse. Each caller must receive the response carrying its
// own request ID.
func TestResponsesRoutedByID(t *testing.T) {
	clientConn, serverConn := net.Pipe()
	c := NewClient(clientConn)
	defer c.Close()
	defer serverConn.Close()

	served := make(chan error, 1)
	go func() {
		reqs := make([]frame, 2)
		for i := range reqs {
			var err error
			if reqs[i], err = readFrame(serverConn, new([framePrefix]byte)); err != nil {
				served <- err
				return
			}
		}
		// Answer in reverse arrival order, tagging each body with the
		// request it answers.
		for i := len(reqs) - 1; i >= 0; i-- {
			body := []byte(fmt.Sprintf("resp-for-%s", reqs[i].body))
			if err := writeFrame(serverConn, reqs[i].id, kindResponse, 0, "", body); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()

	var wg sync.WaitGroup
	results := make([]string, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := c.CallContext(context.Background(), "m", []byte(fmt.Sprintf("call-%d", i)))
			results[i], errs[i] = string(body), err
		}(i)
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	for i := 0; i < 2; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		want := fmt.Sprintf("resp-for-call-%d", i)
		if results[i] != want {
			t.Fatalf("call %d routed wrong response: got %q want %q", i, results[i], want)
		}
	}
}

// TestOutOfOrderViaSlowHandler exercises the real server path: a slow call
// and a fast call share one client; the fast response overtakes the slow
// one and both land at the right waiter.
func TestOutOfOrderViaSlowHandler(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "sleep", func(ms num) (num, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	c := memClient(t, ln)

	slowDone := make(chan error, 1)
	go func() {
		got, err := CallTypedContext[num, num](context.Background(), c, "sleep", 80)
		if err == nil && got != 80 {
			err = fmt.Errorf("slow call got %d", got)
		}
		slowDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the slow request hit the wire first
	start := time.Now()
	got, err := CallTypedContext[num, num](context.Background(), c, "sleep", 1)
	if err != nil || got != 1 {
		t.Fatalf("fast call: %d, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed > 60*time.Millisecond {
		t.Fatalf("fast call serialized behind slow call (%v)", elapsed)
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCallsOneClient hammers a single multiplexed client from
// many goroutines against a server with randomized per-write delays
// (latency.go jitter), the scenario the in-flight map must survive under
// the race detector.
func TestConcurrentCallsOneClient(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(r echoReq) (echoResp, error) {
		return echoResp{Msg: r.Msg}, nil
	})
	ln := NewMemListener()
	go s.Serve(WithListenerJitter(ln, 0, 2*time.Millisecond, 42))
	t.Cleanup(s.Close)

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithJitter(conn, 0, 2*time.Millisecond, 7))
	t.Cleanup(func() { c.Close() })

	const goroutines, calls = 12, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				msg := fmt.Sprintf("g%d-i%d", g, i)
				resp, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: msg})
				if err != nil {
					errs <- err
					return
				}
				if resp.Msg != msg {
					errs <- fmt.Errorf("cross-routed response: got %q want %q", resp.Msg, msg)
					return
				}
				if rng.Intn(4) == 0 {
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	snap := c.Stats().Snapshot()
	if snap.Calls != goroutines*calls {
		t.Fatalf("stats counted %d calls, want %d", snap.Calls, goroutines*calls)
	}
	if snap.Failures != 0 {
		t.Fatalf("stats counted %d failures", snap.Failures)
	}
	if snap.MaxInFlight < 2 {
		t.Fatalf("max in-flight %d; expected genuine concurrency", snap.MaxInFlight)
	}
}

// TestEchoBodiesNeverCross: a handler's request body aliases the pooled
// read buffer, and an echo handler's response is that same slice. Eight
// callers share one connection, each echoing its own payload (all within
// one pooled buffer, the largest filling a single-Write frame exactly); a
// buffer recycled before its response was written, or handed to two
// requests, would surface as another caller's bytes.
func TestEchoBodiesNeverCross(t *testing.T) {
	c := memClient(t, echoServer(t))

	const callers, calls = 8, 40
	largest := bodySeed - framePrefix - frameFixed - len("echo")
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte('a' + g)}, 1+g*largest/(callers-1))
			for i := 0; i < calls; i++ {
				out, err := c.CallContext(context.Background(), "echo", payload)
				if err != nil {
					t.Errorf("caller %d: %v", g, err)
					return
				}
				if !bytes.Equal(out, payload) {
					t.Errorf("caller %d call %d: response of %d bytes starting %q is not its own %d-byte request", g, i, len(out), out[:min(len(out), 8)], len(payload))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// poolBody is a request or response body of
// TestPooledBodiesNeverReusedInUse, sent through the pooled-request path.
type poolBody []byte

func (b poolBody) AppendWire(dst []byte) ([]byte, error) { return append(dst, b...), nil }
func (b *poolBody) DecodeWire(data []byte) error {
	*b = append(poolBody(nil), data...)
	return nil
}

const poolTag = "pooled:"

// poolPattern is call (g, i)'s n-byte body: the tag, g and i, then a fill
// that differs per call. Every fill byte is at least 0x40, so a
// duplicated write of any part of the body parses as a length prefix over
// MaxFrame and the server drops the connection at once.
func poolPattern(g, i, n int) poolBody {
	b := make(poolBody, n)
	at := copy(b, poolTag)
	b[at], b[at+1] = byte(g), byte(i)
	for j := at + 2; j < n; j++ {
		b[j] = 0x40 + byte((g*31+i*7+j)%61)
	}
	return b
}

// TestPooledBodiesNeverReusedInUse: 16 callers share a connection, each
// sending bodies of its own pattern, which the client encodes into pooled
// buffers and the server reads into pooled buffers and echoes from them.
// It runs at two sizes: the client encodes 300 KB bodies into class
// buffers and bodySeed ones into seed buffers, and a bodySeed body's frame
// is too large to stage, so either body is written straight from its
// pooled buffer after the header. A buffer recycled while a frame was
// still being written from it, or handed to two frames at once, would put
// one call's bytes into another's request or response. A FaultConn
// duplicates some client writes: a repeated header turns a request into
// framing garbage (no tag; answered with an error), then the connection
// drops and the callers redial. Every call that succeeds must echo its
// own bytes.
func TestPooledBodiesNeverReusedInUse(t *testing.T) {
	for _, size := range []int{300_000, bodySeed} {
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) { testPooledBodies(t, size) })
	}
}

func testPooledBodies(t *testing.T, size int) {
	srv := NewServer()
	srv.Handle("pool", func(body []byte) ([]byte, error) {
		if !bytes.HasPrefix(body, []byte(poolTag)) {
			return nil, errors.New("framing garbage from a duplicated write")
		}
		g, i := int(body[len(poolTag)]), int(body[len(poolTag)+1])
		if !bytes.Equal(body, poolPattern(g, i, len(body))) {
			t.Errorf("request %d/%d arrived with bytes of another call", g, i)
		}
		return body, nil
	})
	ln := NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	var (
		mu    sync.Mutex
		cur   *Client
		dials int64
	)
	client := func() (*Client, error) {
		mu.Lock()
		defer mu.Unlock()
		if cur == nil || cur.Err() != nil {
			conn, err := ln.Dial()
			if err != nil {
				return nil, err
			}
			dials++
			cur = NewClient(NewFaultConn(conn, Faults{Seed: dials, DupProb: 0.01}))
		}
		return cur, nil
	}
	defer func() { cur.Close() }()

	const callers, calls = 16, 20
	var (
		wg                 sync.WaitGroup
		countMu            sync.Mutex
		okCount, failCount int
	)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				req := poolPattern(g, i, size)
				c, err := client()
				if err != nil {
					t.Error(err)
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				resp, err := CallSizedContext[poolBody, poolBody](ctx, c, "pool", req, len(req))
				cancel()
				countMu.Lock()
				if err != nil {
					failCount++
				} else {
					okCount++
				}
				countMu.Unlock()
				if err == nil && !bytes.Equal(resp, req) {
					t.Errorf("call %d/%d: the response is not its own request", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if okCount < callers*calls/2 {
		t.Fatalf("only %d of %d calls succeeded (%d failed, %d connections)", okCount, callers*calls, failCount, dials)
	}
	t.Logf("%d calls succeeded, %d failed over %d connections", okCount, failCount, dials)
}

// TestCallContextDeadline: a deadline abandons one call without poisoning
// the connection — the next call on the same client succeeds.
func TestCallContextDeadline(t *testing.T) {
	release := make(chan struct{})
	s := NewServer()
	HandleTyped(s, "stall", func(x num) (num, error) {
		<-release
		return x, nil
	})
	HandleTyped(s, "echo", func(x num) (num, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(release) }) // unblock handler before server close
	c := memClient(t, ln)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := CallTypedContext[num, num](ctx, c, "stall", 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline fired after %v", elapsed)
	}
	if c.Err() != nil {
		t.Fatalf("client poisoned by per-call deadline: %v", c.Err())
	}
	got, err := CallTypedContext[num, num](context.Background(), c, "echo", 7)
	if err != nil || got != 7 {
		t.Fatalf("follow-up call after timeout: %d, %v", got, err)
	}
	snap := c.Stats().Snapshot()
	if snap.Timeouts != 1 {
		t.Fatalf("stats timeouts = %d, want 1", snap.Timeouts)
	}
}

// TestStickyFailure: once the connection dies, in-flight and future calls
// fail fast with the same error instead of hanging.
func TestStickyFailure(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(x num) (num, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	c := memClient(t, ln)
	if _, err := CallTypedContext[num, num](context.Background(), c, "echo", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := c.CallContext(context.Background(), "echo", nil); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	if c.Err() == nil {
		t.Fatal("no sticky error after connection loss")
	}
	start := time.Now()
	if _, err := c.CallContext(context.Background(), "echo", nil); err == nil {
		t.Fatal("second call on dead connection succeeded")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("dead client did not fail fast")
	}
}

// TestHandlerPanicIsAnswered: a panicking handler must produce an error
// response, not kill the server or the connection's other requests.
func TestHandlerPanicIsAnswered(t *testing.T) {
	s := NewServer()
	s.Handle("boom", func(body []byte) ([]byte, error) { panic("kaboom") })
	HandleTyped(s, "echo", func(x num) (num, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	c := memClient(t, ln)

	_, err := c.CallContext(context.Background(), "boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "panic") {
		t.Fatalf("err = %v, want remote panic error", err)
	}
	got, err := CallTypedContext[num, num](context.Background(), c, "echo", 5)
	if err != nil || got != 5 {
		t.Fatalf("connection unusable after handler panic: %d, %v", got, err)
	}
}
