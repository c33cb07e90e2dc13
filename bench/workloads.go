package main

import (
	"deta/internal/agg"
	"deta/internal/journal"
)

// journalMode says whether the workload's aggregators keep a write-ahead
// log, and whether each append is fsynced.
type journalMode int

const (
	journalOff journalMode = iota
	journalFsync
	journalNoSync
)

func (m journalMode) String() string {
	return [...]string{"off", "fsync", "nosync"}[m]
}

func (m journalMode) options() journal.Options {
	return journal.Options{NoSync: m == journalNoSync}
}

// workload is one set of inputs: N party identities played by D driver
// goroutines against K aggregators. Every field is a property of the
// traffic; nothing in the program under test knows the workload's name.
type workload struct {
	Name string
	Why  string

	Parties     int // N: party identities
	Params      int // n: model parameters per update
	Aggregators int // K
	Drivers     int // D: parties in flight during the upload and download phases
	Algorithm   agg.Algorithm
	Shuffle     bool
	TLS         bool // loopback TCP+TLS instead of the in-memory listener
	Journal     journalMode
	// RestartEvery > 0 crashes and recovers all K aggregators after the
	// upload phase of every RestartEvery-th round.
	RestartEvery int

	// Rounds and Warmup size a run without -seconds; with -seconds the
	// measured phase is bounded by time instead of Rounds.
	Rounds int
	Warmup int
}

// Fragment sizes straddle transport's 64 KiB pooled-body threshold on
// purpose: ctl_small, wal_restart and fanin_median sit below it,
// wal_fsync and bulk_tls above.
var workloads = []workload{
	{
		Name:    "ctl_small",
		Why:     "99 small RPCs per round: per-call cost (envelope, mux hand-offs, goroutine per request) dominates, bytes do not",
		Parties: 16, Params: 4096, Aggregators: 3, Drivers: 2,
		Algorithm: agg.IterativeAverage{}, Shuffle: true,
		Rounds: 1200, Warmup: 20,
	},
	{
		Name:    "bulk_tls",
		Why:     "700 KB fragments over loopback TLS: perm derivation, gather, codec, body copies and TLS records dominate, per-call cost is noise",
		Parties: 4, Params: 262144, Aggregators: 3, Drivers: 2,
		Algorithm: agg.IterativeAverage{}, Shuffle: true, TLS: true,
		Rounds: 120, Warmup: 5,
	},
	{
		Name:    "wal_fsync",
		Why:     "journal write side under contention: 8 uploads in flight per aggregator, each fsynced under the node mutex",
		Parties: 8, Params: 65536, Aggregators: 3, Drivers: 8,
		Algorithm: agg.IterativeAverage{}, Shuffle: true, Journal: journalFsync,
		Rounds: 200, Warmup: 5,
	},
	{
		Name:    "wal_restart",
		Why:     "journal read side: every 5th round all aggregators crash after the uploads and recover by replay, so p90 pays a recovery",
		Parties: 8, Params: 16384, Aggregators: 3, Drivers: 2,
		Algorithm: agg.IterativeAverage{}, Shuffle: true, Journal: journalNoSync, RestartEvery: 5,
		Rounds: 400, Warmup: 5,
	},
	{
		Name:    "fanin_median",
		Why:     "wide fan-in with a non-streamable kernel: fuse phase and per-node fragment retention show in time and peak RSS",
		Parties: 32, Params: 16384, Aggregators: 3, Drivers: 2,
		Algorithm: agg.CoordinateMedian{}, Shuffle: true,
		Rounds: 200, Warmup: 5,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
