package transport

import (
	"context"
	"testing"
	"time"
)

func TestLatencyConnDelaysCalls(t *testing.T) {
	s := NewServer()
	HandleTyped(s, "echo", func(x num) (num, error) { return x, nil })
	ln := NewMemListener()
	go s.Serve(&JitterListener{Listener: ln, Min: 2 * time.Millisecond, Max: 2 * time.Millisecond})
	defer s.Close()

	conn, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(WithJitter(conn, 2*time.Millisecond, 2*time.Millisecond, 0))
	defer c.Close()

	start := time.Now()
	const calls = 5
	for i := num(0); i < calls; i++ {
		got, err := CallTypedContext[num, num](context.Background(), c, "echo", i)
		if err != nil || got != i {
			t.Fatalf("call %d: %v, %v", i, got, err)
		}
	}
	elapsed := time.Since(start)
	// Each call pays >= 4ms (client write + server write).
	if min := calls * 4 * time.Millisecond; elapsed < min {
		t.Fatalf("elapsed %v, want >= %v with injected latency", elapsed, min)
	}
}

func TestZeroLatencyPassthrough(t *testing.T) {
	ln := NewMemListener()
	defer ln.Close()
	wrapped := WithListenerJitter(ln, 0, 0, 0)
	go func() {
		conn, _ := ln.Dial()
		if conn != nil {
			conn.Close()
		}
	}()
	conn, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
}
