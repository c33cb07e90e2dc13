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
			if reqs[i], err = readFrame(serverConn); err != nil {
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
	HandleTyped(s, "sleep", func(ms int) (int, error) {
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	c := memClient(t, ln)

	slowDone := make(chan error, 1)
	go func() {
		got, err := CallTypedContext[int, int](context.Background(), c, "sleep", 80)
		if err == nil && got != 80 {
			err = fmt.Errorf("slow call got %d", got)
		}
		slowDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the slow request hit the wire first
	start := time.Now()
	got, err := CallTypedContext[int, int](context.Background(), c, "sleep", 1)
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

// TestCallContextDeadline: a deadline abandons one call without poisoning
// the connection — the next call on the same client succeeds.
func TestCallContextDeadline(t *testing.T) {
	release := make(chan struct{})
	s := NewServer()
	HandleTyped(s, "stall", func(x int) (int, error) {
		<-release
		return x, nil
	})
	HandleTyped(s, "echo", func(x int) (int, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(release) }) // unblock handler before server close
	c := memClient(t, ln)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := CallTypedContext[int, int](ctx, c, "stall", 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline fired after %v", elapsed)
	}
	if c.Err() != nil {
		t.Fatalf("client poisoned by per-call deadline: %v", c.Err())
	}
	got, err := CallTypedContext[int, int](context.Background(), c, "echo", 7)
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
	HandleTyped(s, "echo", func(x int) (int, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	c := memClient(t, ln)
	if _, err := CallTypedContext[int, int](context.Background(), c, "echo", 1); err != nil {
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

func TestPingAndKeepAlive(t *testing.T) {
	s := NewServer() // no handlers at all: ping is built in
	ln := NewMemListener()
	go s.Serve(ln)
	c := memClient(t, ln)
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping: %v", err)
	}
	c.EnableKeepAlive(5*time.Millisecond, 50*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	if c.Err() != nil {
		t.Fatalf("keepalive failed a healthy connection: %v", c.Err())
	}
	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Err() == nil {
		t.Fatal("keepalive did not detect the dead server")
	}
}

func TestDialBackoffRecovers(t *testing.T) {
	ln := NewMemListener()
	defer ln.Close()
	var attempts int
	dial := func(ctx context.Context) (net.Conn, error) {
		attempts++
		if attempts < 3 {
			return nil, errors.New("connection refused")
		}
		return ln.Dial()
	}
	b := Backoff{Attempts: 5, Initial: time.Millisecond, Max: 4 * time.Millisecond}
	var stats Stats
	conn, err := DialBackoff(context.Background(), b, &stats, dial)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if attempts != 3 {
		t.Fatalf("dialed %d times, want 3", attempts)
	}
	if got := stats.Snapshot().Retries; got != 2 {
		t.Fatalf("stats retries = %d, want 2", got)
	}
}

func TestDialBackoffHonorsContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DialBackoff(ctx, Backoff{Attempts: 100, Initial: 5 * time.Millisecond}, nil,
		func(ctx context.Context) (net.Conn, error) { return nil, errors.New("down") })
	if err == nil {
		t.Fatal("dial to dead endpoint succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("backoff ignored the context deadline")
	}
}

func TestRetryStopsOnRemoteError(t *testing.T) {
	var attempts int
	err := Retry(context.Background(), Backoff{Attempts: 5, Initial: time.Millisecond}, nil,
		func(ctx context.Context) error {
			attempts++
			return &RemoteError{Method: "m", Msg: "rejected"}
		})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if attempts != 1 {
		t.Fatalf("retried an application rejection %d times", attempts)
	}
}

func TestRetryBounded(t *testing.T) {
	var attempts int
	err := Retry(context.Background(), Backoff{Attempts: 3, Initial: time.Millisecond}, nil,
		func(ctx context.Context) error {
			attempts++
			return errors.New("transient")
		})
	if err == nil || attempts != 3 {
		t.Fatalf("attempts = %d, err = %v; want 3 bounded attempts", attempts, err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("error does not report attempt count: %v", err)
	}
}

// TestRetryUnlimitedRunsUntilContext: UnlimitedAttempts must outlast the
// default 4-attempt cap and stop only when the context ends — the
// deployment-start dial contract (the -dial-timeout budget is the limit).
func TestRetryUnlimitedRunsUntilContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var attempts int
	err := Retry(ctx, Backoff{Attempts: UnlimitedAttempts, Initial: time.Millisecond, Max: time.Millisecond}, nil,
		func(ctx context.Context) error {
			attempts++
			if attempts == 10 {
				cancel()
			}
			return errors.New("still down")
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context cancellation, got: %v", err)
	}
	if attempts < 10 {
		t.Fatalf("attempts = %d; unlimited retry gave up before the context ended", attempts)
	}
}

// TestHandlerPanicIsAnswered: a panicking handler must produce an error
// response, not kill the server or the connection's other requests.
func TestHandlerPanicIsAnswered(t *testing.T) {
	s := NewServer()
	s.Handle("boom", func(body []byte) ([]byte, error) { panic("kaboom") })
	HandleTyped(s, "echo", func(x int) (int, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(ln)
	t.Cleanup(s.Close)
	c := memClient(t, ln)

	_, err := c.CallContext(context.Background(), "boom", nil)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "panic") {
		t.Fatalf("err = %v, want remote panic error", err)
	}
	got, err := CallTypedContext[int, int](context.Background(), c, "echo", 5)
	if err != nil || got != 5 {
		t.Fatalf("connection unusable after handler panic: %d, %v", got, err)
	}
}
