package transport_test

import (
	"testing"

	"deta/internal/perf"
)

// BenchmarkPerfSuite runs the transport area of the tracked perf suite
// (internal/perf) under `go test -bench`, emitting the same stable bench
// names the BENCH_transport.json baseline records:
//
//	go test -bench PerfSuite -benchmem ./internal/transport
func BenchmarkPerfSuite(b *testing.B) { perf.RunAreaBenchmarks(b, "transport") }
