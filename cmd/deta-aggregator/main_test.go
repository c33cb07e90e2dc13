package main

import (
	"context"
	"testing"
	"time"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]string{
		"avg":       "iterative-averaging",
		"median":    "coordinate-median",
		"trimmed:2": "trimmed-mean-2",
	}
	for in, want := range cases {
		alg, err := parseAlgorithm(in)
		if err != nil {
			t.Errorf("%q: %v", in, err)
			continue
		}
		if alg.Name() != want {
			t.Errorf("%q -> %q, want %q", in, alg.Name(), want)
		}
	}
	for _, bad := range []string{"", "krumm", "trimmed:x", "trimmed"} {
		if _, err := parseAlgorithm(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// Regression for a goleak finding: livenessTicker used to range over the
// ticker channel with no escape edge, so the goroutine could never exit.
// It must now return promptly when its context is cancelled. The node is
// nil on purpose: with an hour-long interval the loop must reach the
// ctx.Done arm before it ever touches the node.
func TestLivenessTickerStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		livenessTicker(ctx, nil, time.Hour)
		close(done)
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("livenessTicker did not exit on context cancellation")
	}
}
