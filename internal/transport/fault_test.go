package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// echoServer serves a method that returns its body unchanged.
func echoServer(t *testing.T) *MemListener {
	t.Helper()
	srv := NewServer()
	srv.Handle("echo", func(body []byte) ([]byte, error) { return body, nil })
	ln := NewMemListener()
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	return ln
}

func TestFaultConnCleanPlanPassesThrough(t *testing.T) {
	ln := echoServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewFaultConn(conn, Faults{Seed: 1}))
	defer c.Close()
	out, err := c.CallContext(context.Background(), "echo", []byte("hello"))
	if err != nil || string(out) != "hello" {
		t.Fatalf("Call = %q, %v", out, err)
	}
}

func TestFaultConnSeverFailsCalls(t *testing.T) {
	ln := echoServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewFaultConn(conn, Faults{Seed: 2, SeverProb: 1}))
	defer c.Close()
	if _, err := c.CallContext(context.Background(), "echo", []byte("x")); err == nil {
		t.Fatal("call over a severed connection succeeded")
	}
	if c.Err() == nil {
		t.Fatal("sever did not stick the client error")
	}
}

// A silently dropped write is the ambiguous failure: the call must fail
// (not hang) once the connection is recognized dead.
func TestFaultConnDropTimesOutCall(t *testing.T) {
	ln := echoServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewFaultConn(conn, Faults{Seed: 3, DropProb: 1}))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := c.CallContext(ctx, "echo", []byte("x")); err == nil {
		t.Fatal("call whose request was dropped succeeded")
	}
}

// A corrupted byte is framing garbage: the RPC layer must fail the affected
// connection cleanly — an error, never a hang or panic. A duplicated Write
// is different: a frame leaves in one Write, so the duplicate is a
// well-formed replay, and the contract (package comment) is that every call
// still returns its own answer or an error, the server runs the handler once
// per delivered copy, and nothing is left hanging.
func TestFaultConnCorruptAndDupFailCleanly(t *testing.T) {
	ln := echoServer(t)
	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(NewFaultConn(conn, Faults{Seed: 4, CorruptProb: 1}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	var firstErr error
	for i := 0; i < 5 && firstErr == nil; i++ {
		_, firstErr = c.CallContext(ctx, "echo", []byte("payload-to-damage"))
	}
	cancel()
	c.Close()
	if firstErr == nil {
		t.Fatal("corrupted frames never surfaced an error")
	}

	var handled atomic.Int64
	srv := NewServer()
	srv.Handle("echo", func(body []byte) ([]byte, error) {
		handled.Add(1)
		return body, nil
	})
	dupLn := NewMemListener()
	go srv.Serve(dupLn)
	if conn, err = dupLn.Dial(); err != nil {
		t.Fatal(err)
	}
	c = NewClient(NewFaultConn(conn, Faults{Seed: 5, DupProb: 1}))
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	const calls = 5
	for i := 0; i < calls; i++ {
		want := fmt.Sprintf("payload-%d", i)
		out, err := c.CallContext(ctx, "echo", []byte(want))
		if err == nil && string(out) != want {
			t.Fatalf("call %d over a duplicating link answered %q, want %q", i, out, want)
		}
	}
	c.Close()
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Server.Close hung after replayed frames")
	}
	if n := handled.Load(); n > 2*calls {
		t.Fatalf("handler ran %d times for %d calls each delivered twice", n, calls)
	}
}

func TestFaultDialerDeterministicPerConnection(t *testing.T) {
	// Two dialers with the same plan must produce identical fault
	// schedules for connection k.
	roll := func() []bool {
		ln := NewMemListener()
		defer ln.Close()
		dial := FaultDialer(func() (net.Conn, error) { return ln.Dial() }, Faults{Seed: 42, SeverProb: 0.5})
		outcomes := make([]bool, 8)
		for i := range outcomes {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			go func() { // drain the server half so writes complete
				sc, err := ln.Accept()
				if err != nil {
					return
				}
				buf := make([]byte, 16)
				for {
					if _, err := sc.Read(buf); err != nil {
						return
					}
				}
			}()
			_, werr := conn.Write([]byte("probe"))
			outcomes[i] = werr == nil
			conn.Close()
		}
		return outcomes
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("connection %d: outcome %v vs %v — fault schedule not deterministic", i, a[i], b[i])
		}
	}
	all := true
	for _, ok := range a {
		all = all && ok
	}
	if all {
		t.Fatal("SeverProb=0.5 over 8 connections injected nothing — faults inert")
	}
}

func TestFaultConnDelayDelays(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go func() {
		buf := make([]byte, 8)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	fc := NewFaultConn(client, Faults{Seed: 6, DelayProb: 1, Delay: 30 * time.Millisecond})
	start := time.Now()
	if _, err := fc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("delayed write took %v, want >= 25ms", d)
	}
	fc.Close()
}

func TestSeveredConnStaysDead(t *testing.T) {
	client, _ := net.Pipe()
	fc := NewFaultConn(client, Faults{Seed: 7, SeverProb: 1})
	if _, err := fc.Write([]byte("x")); err == nil {
		t.Fatal("sever did not fail the write")
	}
	if _, err := fc.Write([]byte("x")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-sever write = %v, want ErrInjectedFault", err)
	}
	if _, err := fc.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("post-sever read = %v, want ErrInjectedFault", err)
	}
}
