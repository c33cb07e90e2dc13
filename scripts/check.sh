#!/bin/sh
# check.sh — the repo's full verification gate: vet, build, the whole test
# suite under the race detector, internal/experiments again without it (at
# full test scale), and the chaos end-to-end test (injected
# faults + aggregator kill/restart, fixed seed 0xDE7A in chaos_test.go)
# run explicitly so its pass/fail is visible on its own line.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

# The baseline holds the acknowledged allocfree burn-down sites only; any
# NEW finding — including a malformed //perf:hotpath annotation, which the
# allocfree analyzer reports as a finding in its own right — fails the gate.
echo "== deta-lint (security, determinism & concurrency invariants)"
go run ./cmd/deta-lint -baseline lint-baseline.json ./...

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The race build shrinks internal/experiments' training tests to one tiny
# round and skips the attack-rate tests (see its race_test.go); this run
# asserts the attack success rates and the Fig5a latency band at FastScale.
echo "== go test ./internal/experiments (attack rates, Fig5a band)"
go test ./internal/experiments

# bench/ is its own module (BENCHMARK.json's harness), so ./... above does
# not compile it: build and test it against the working tree's internal/*
# here, or an API rename breaks the benchmark unseen.
echo "== bench module (go vet + go test against this tree's internal/*)"
(cd bench && go vet ./... && go test ./...)

echo "== chaos e2e (fault injection + aggregator kill/restart, -race)"
go test -race -count=1 -run 'TestChaosRestartBitIdenticalModel' -v ./internal/core

echo "== churn chaos e2e (party death + evict + rejoin + aggregator restart, -race)"
go test -race -count=1 -run 'TestChaosChurnEvictRejoinBitIdentical' -v ./internal/core

echo "== perf vs tracked baselines: round-path areas (fusion kernels, transform, wire, crypto) gate hard"
go run ./cmd/deta-bench -perf -perf-area agg,core,transport,paillier -perf-baseline .

echo "== perf vs tracked baselines: advisory areas (warn-only: fsync is machine-dependent, lint cost tracks tree size)"
go run ./cmd/deta-bench -perf -perf-area journal,lint -perf-baseline . ||
	echo "WARNING: perf regression vs BENCH_*.json baselines (exit $?)." \
		"Investigate, or refresh with: go run ./cmd/deta-bench -perf -perf-baseline-write"

echo "== all checks passed"
