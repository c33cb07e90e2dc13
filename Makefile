# Standard entry points; scripts/check.sh is the single source of truth
# for the full verification gate.

.PHONY: build test race chaos bench lint check perf perf-baseline

build:
	go build ./...

# Project-specific static analysis (internal/lint): security, determinism,
# and concurrency invariants the type system can't see. Exits nonzero on
# any finding: a finding is fixed, or acknowledged at its call site with
# //lint:ignore <analyzer> <reason>.
lint:
	go run ./cmd/deta-lint ./...

test:
	go test ./...

race:
	go test -race ./...

# The chaos end-to-end tests: injected drops/delays/severs (fixed seed
# 0xDE7A) plus two aggregator kill+restarts mid-round, and the churn
# variant (party death + liveness evict + rejoin + aggregator restart);
# recovered/survivor models must be bit-identical.
chaos:
	go test -race -count=1 -run 'TestChaosRestartBitIdenticalModel' -v ./internal/core
	go test -race -count=1 -run 'TestChaosChurnEvictRejoinBitIdentical' -v ./internal/core

# Journal-overhead benchmarks recorded in EXPERIMENTS.md.
bench:
	go test -bench 'BenchmarkAppend' -run xxx ./internal/journal
	go test -bench 'BenchmarkUpload' -run xxx ./internal/core

# Tracked perf suite vs checked-in BENCH_*.json baselines (internal/perf);
# exits 4 on regression. `make perf-baseline` refreshes the baselines.
perf:
	go run ./cmd/deta-bench -perf -perf-baseline .

perf-baseline:
	go run ./cmd/deta-bench -perf -perf-baseline-write -perf-baseline .

check:
	sh scripts/check.sh
