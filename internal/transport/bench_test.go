package transport

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// Fan-out benchmarks: one party-side caller issuing the same RPC to K
// aggregator servers, each behind an injected WAN write delay
// (latency.go), comparing the old sequential round loop with the
// multiplexed parallel fan-out core.Fleet uses. Results recorded in
// EXPERIMENTS.md ("Wire concurrency").
const benchDelay = 500 * time.Microsecond

func startBenchFleet(b *testing.B, k int) []*Client {
	b.Helper()
	clients := make([]*Client, k)
	for j := 0; j < k; j++ {
		s := NewServer()
		HandleTyped(s, "echo", func(r echoReq) (echoResp, error) { return echoResp{Msg: r.Msg}, nil })
		ln := NewMemListener()
		go s.Serve(WithListenerJitter(ln, benchDelay, benchDelay, 0))
		b.Cleanup(s.Close)
		conn, err := ln.Dial()
		if err != nil {
			b.Fatal(err)
		}
		c := NewClient(WithJitter(conn, benchDelay, benchDelay, 0))
		b.Cleanup(func() { c.Close() })
		clients[j] = c
	}
	return clients
}

func BenchmarkFanOutSequential(b *testing.B) {
	for _, k := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			clients := startBenchFleet(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, c := range clients {
					if _, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "frag"}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFanOutParallel(b *testing.B) {
	for _, k := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			clients := startBenchFleet(b, k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, len(clients))
				for j, c := range clients {
					wg.Add(1)
					go func(j int, c *Client) {
						defer wg.Done()
						_, errs[j] = CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "frag"})
					}(j, c)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkPipelinedSingleConn measures multiplexing on ONE connection:
// 16 concurrent callers sharing a client vs. the same 16 calls serialized.
func BenchmarkPipelinedSingleConn(b *testing.B) {
	run := func(b *testing.B, concurrent bool) {
		clients := startBenchFleet(b, 1)
		c := clients[0]
		const batch = 16
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if concurrent {
				var wg sync.WaitGroup
				for j := 0; j < batch; j++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "m"})
					}()
				}
				wg.Wait()
			} else {
				for j := 0; j < batch; j++ {
					if _, err := CallTypedContext[echoReq, echoResp](context.Background(), c, "echo", echoReq{Msg: "m"}); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("serialized", func(b *testing.B) { run(b, false) })
	b.Run("pipelined", func(b *testing.B) { run(b, true) })
}
