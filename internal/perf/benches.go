package perf

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"testing"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/core"
	"deta/internal/journal"
	"deta/internal/lint"
	"deta/internal/paillier"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// benches.go defines the tracked suite: a handful of deterministic,
// sub-second benches per area covering the paths ROADMAP items 1-3 intend
// to speed up. Names are stable identifiers — the BENCH_<area>.json
// baselines key on them, so renaming one is a deliberate re-baselining
// event, not a cosmetic edit.

// benchVector builds a deterministic pseudo-random update vector.
func benchVector(label string, n int) tensor.Vector {
	s := rng.NewStream([]byte("perf-suite"), label)
	v := make(tensor.Vector, n)
	for i := range v {
		v[i] = s.NormFloat64()
	}
	return v
}

// benchUpdates builds one update vector per party.
func benchUpdates(parties, n int) []tensor.Vector {
	out := make([]tensor.Vector, parties)
	for p := range out {
		out[p] = benchVector(fmt.Sprintf("party-%d", p), n)
	}
	return out
}

// ---- agg: the aggregation kernels -------------------------------------

func aggAlgorithmBench(alg agg.Algorithm, parties, n int) func(b *testing.B) {
	return func(b *testing.B) {
		updates := benchUpdates(parties, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := alg.Aggregate(updates, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func aggBenches() []Bench {
	return []Bench{
		{Name: "agg/IterativeAverage/p8,n16384", F: aggAlgorithmBench(agg.IterativeAverage{}, 8, 1<<14)},
		{Name: "agg/CoordinateMedian/p8,n16384", F: aggAlgorithmBench(agg.CoordinateMedian{}, 8, 1<<14)},
		{Name: "agg/TrimmedMean/p8,n16384", F: aggAlgorithmBench(agg.TrimmedMean{Trim: 1}, 8, 1<<14)},
		// The fanin_median benchmark's per-node fuse: 32 parties, one
		// third of its 16 384 parameters.
		{Name: "agg/CoordinateMedian/p32,n5462", F: aggAlgorithmBench(agg.CoordinateMedian{}, 32, 5462)},
		{Name: "agg/TrimmedMean/p32,n5462", F: aggAlgorithmBench(agg.TrimmedMean{Trim: 1}, 32, 5462)},
		{Name: "agg/Krum/p8,n4096", F: aggAlgorithmBench(agg.Krum{F: 1}, 8, 1<<12)},
		{Name: "agg/FLAMELite/p8,n4096", F: aggAlgorithmBench(agg.FLAMELite{}, 8, 1<<12)},
	}
}

// ---- core: party-side transform and aggregator upload -----------------

func coreTransformSetup(b *testing.B, n int) (*core.Mapper, *core.Shuffler, tensor.Vector) {
	b.Helper()
	m, err := core.NewMapper(n, core.EqualProportions(3), []byte("perf-mapper"))
	if err != nil {
		b.Fatal(err)
	}
	s, err := core.NewShuffler([]byte("perf-permutation-key-32-bytes-ok"))
	if err != nil {
		b.Fatal(err)
	}
	return m, s, benchVector("transform", n)
}

func coreBenches() []Bench {
	const n = 1 << 14
	roundID := []byte("perf-round")
	return []Bench{
		{Name: "core/Transform/k3,n16384", F: func(b *testing.B) {
			m, s, update := coreTransformSetup(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Transform(m, s, update, roundID, true); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The bench above reuses one round ID, so after its first iteration
		// it times the gather alone. A party sees a fresh round ID every
		// round and pays the K permutation derivations too; this is that
		// round, and the gate that keeps derivation off the critical path.
		{Name: "core/Transform/cold,k3,n16384", F: func(b *testing.B) {
			m, s, update := coreTransformSetup(b, n)
			id := make([]byte, 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				binary.BigEndian.PutUint64(id, uint64(i))
				frags, err := core.Transform(m, s, update, id, true)
				if err != nil {
					b.Fatal(err)
				}
				for _, frag := range frags {
					tensor.PutVector(frag)
				}
			}
		}},
		// The derivation on its own, at a fragment length between the
		// wal_fsync and bulk_tls workloads' (named for what it measures;
		// it lives here because there is no rng area).
		{Name: "core/KeyedPerm/n65536", F: func(b *testing.B) {
			seed := rng.DeriveSeed([]byte("perf-suite"), []byte("keyed-perm"))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rng.KeyedPerm(seed, 1<<16); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "core/InverseTransform/k3,n16384", F: func(b *testing.B) {
			m, s, update := coreTransformSetup(b, n)
			frags, err := core.Transform(m, s, update, roundID, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.InverseTransform(m, s, frags, roundID, true); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "core/Upload/no-journal,n4096", F: func(b *testing.B) {
			node := perfUploadNode(b)
			frag := benchVector("upload", 1<<12)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A fresh round per iteration keeps each Upload on the
				// commit path instead of the idempotent fast path.
				if err := node.Upload(i+1, "P1", frag, 1); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// perfUploadNode builds a provisioned in-memory aggregator with bounded
// retention so long benchmark runs do not accumulate per-round state.
func perfUploadNode(b *testing.B) *core.AggregatorNode {
	b.Helper()
	vendor, err := sev.NewVendor()
	if err != nil {
		b.Fatal(err)
	}
	proxy := attest.NewProxy(vendor.RAS(), core.OVMF)
	platform, err := sev.NewPlatform("host/perf-suite", vendor)
	if err != nil {
		b.Fatal(err)
	}
	cvm, err := platform.LaunchCVM(core.OVMF)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := proxy.Provision("perf-suite", platform, cvm); err != nil {
		b.Fatal(err)
	}
	node, err := core.NewAggregatorNode("perf-suite", agg.IterativeAverage{}, cvm)
	if err != nil {
		b.Fatal(err)
	}
	node.Register("P1")
	node.SetRetention(8)
	return node
}

// ---- journal: WAL append and recovery replay --------------------------

func journalAppendBench(noSync bool, size int) func(b *testing.B) {
	return func(b *testing.B) {
		dir, err := os.MkdirTemp("", "perf-journal")
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = os.RemoveAll(dir) }()
		j, _, err := journal.Open(dir, journal.Options{NoSync: noSync})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = j.Close() }()
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i)
		}
		b.SetBytes(int64(size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := j.Append(1, data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func journalBenches() []Bench {
	return []Bench{
		{Name: "journal/Append/nosync,256B", F: journalAppendBench(true, 256)},
		{
			Name: "journal/Append/nosync,32KiB", F: journalAppendBench(true, 32<<10),
			Ignore:       true,
			IgnoreReason: "32KiB appends are dominated by page-cache writeback, which is host state, not code (observed >2x swings between identical runs)",
		},
		{
			Name: "journal/Append/fsync,256B", F: journalAppendBench(false, 256),
			Ignore:       true,
			IgnoreReason: "per-record fsync latency is storage-environment dependent, not code-determined",
		},
		{Name: "journal/Replay/1000x256B", F: func(b *testing.B) {
			dir, err := os.MkdirTemp("", "perf-journal")
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = os.RemoveAll(dir) }()
			j, _, err := journal.Open(dir, journal.Options{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, 256)
			for i := 0; i < 1000; i++ {
				if err := j.Append(1, data); err != nil {
					b.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j, _, err := journal.Open(dir, journal.Options{NoSync: true})
				if err != nil {
					b.Fatal(err)
				}
				if err := j.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// ---- lint: the static-analysis suite over the module itself -----------

// lintBenchState caches the loaded, type-checked module tree across
// iterations and runs: go-list + type-checking is one-time setup cost,
// while the baseline tracks the analysis cost — the part the
// protocol-invariant tier (CFG + dominators + must-flow + call-graph
// summaries) made meaningfully more expensive and worth pinning.
var lintBenchState struct {
	once sync.Once
	pkgs []*lint.Package
	err  error
}

func lintBenches() []Bench {
	return []Bench{
		{
			Name: "lint/Suite/module",
			F: func(b *testing.B) {
				lintBenchState.once.Do(func() {
					root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
					if err != nil {
						lintBenchState.err = fmt.Errorf("perf: locating module root: %w", err)
						return
					}
					lintBenchState.pkgs, lintBenchState.err = lint.NewLoader().Load(
						strings.TrimSpace(string(root)), "./...")
				})
				if lintBenchState.err != nil {
					b.Fatal(lintBenchState.err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Fresh analyzer instances each iteration: Prepare-phase
					// work (call graphs, alloc summaries, lock classes) is
					// part of what a real deta-lint run pays.
					lint.Run(lintBenchState.pkgs, lint.All())
				}
			},
			// Analysis time necessarily grows with the tree being linted,
			// so this area belongs on the advisory (warn-only) list in
			// check.sh/CI, not the hard gate: the baseline exists to make
			// an accidental superlinear blowup visible, not to tax every
			// PR that adds code.
			Cleanup: func() {
				// Drop the type-checked module tree and collect it NOW:
				// left alive, its scan work alone slows every allocating
				// bench in the areas measured after this one.
				lintBenchState.pkgs, lintBenchState.err = nil, nil
				lintBenchState.once = sync.Once{}
				runtime.GC()
			},
		},
	}
}

// ---- paillier: the vector crypto kernels ------------------------------

func paillierKey(b *testing.B) *paillier.PrivateKey {
	b.Helper()
	sk, err := paillier.GenerateKey(256)
	if err != nil {
		b.Fatal(err)
	}
	return sk
}

func paillierVec(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i%23)*0.5 - 5
	}
	return xs
}

func paillierBenches() []Bench {
	return []Bench{
		{Name: "paillier/EncryptVector/bits256,n32", F: func(b *testing.B) {
			sk := paillierKey(b)
			xs := paillierVec(32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.EncryptVector(xs); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "paillier/DecryptVector/bits256,n32", F: func(b *testing.B) {
			sk := paillierKey(b)
			cts, err := sk.EncryptVector(paillierVec(32))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.DecryptVector(cts); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "paillier/AddVectors/bits256,p4,n64", F: func(b *testing.B) {
			sk := paillierKey(b)
			xs := paillierVec(64)
			var vecs [][]*paillier.Ciphertext
			for p := 0; p < 4; p++ {
				cts, err := sk.EncryptVector(xs)
				if err != nil {
					b.Fatal(err)
				}
				vecs = append(vecs, cts)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sk.AddVectors(vecs...); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// ---- transport: RPC round trip and wire codec -------------------------

// The echo messages take the fixed-layout path every round-path message
// takes (the payload is the whole body), so the Call benches time the
// frame and the mux, not gob.
type perfEchoReq struct{ Payload []byte }
type perfEchoResp struct{ Payload []byte }

func (r perfEchoReq) AppendWire(dst []byte) ([]byte, error) { return append(dst, r.Payload...), nil }
func (r *perfEchoReq) DecodeWire(data []byte) error {
	r.Payload = append([]byte(nil), data...)
	return nil
}
func (r perfEchoResp) AppendWire(dst []byte) ([]byte, error) { return append(dst, r.Payload...), nil }
func (r *perfEchoResp) DecodeWire(data []byte) error {
	r.Payload = append([]byte(nil), data...)
	return nil
}

// perfTransportClient starts an in-memory server with a typed "echo" and a
// raw "noop" method (no injected latency: these benches track CPU cost of
// framing + body codec, not simulated WAN delay) and returns a connected
// client.
func perfTransportClient(b *testing.B) *transport.Client {
	b.Helper()
	s := transport.NewServer()
	transport.HandleTyped(s, "echo", func(r perfEchoReq) (perfEchoResp, error) {
		return perfEchoResp{Payload: r.Payload}, nil
	})
	s.Handle("noop", func([]byte) ([]byte, error) { return nil, nil })
	ln := transport.NewMemListener()
	go func() { _ = s.Serve(ln) }()
	conn, err := ln.Dial()
	if err != nil {
		b.Fatal(err)
	}
	c := transport.NewClient(conn)
	b.Cleanup(func() {
		_ = c.Close()
		s.Close()
	})
	return c
}

func transportBenches() []Bench {
	payload := make([]byte, 1<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	wireVec := benchVector("wire", 1<<12)
	return []Bench{
		{Name: "transport/Call/seq,1KiB", F: func(b *testing.B) {
			c := perfTransportClient(b)
			req := perfEchoReq{Payload: payload}
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := transport.CallTypedContext[perfEchoReq, perfEchoResp](context.Background(), c, "echo", req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "transport/Call/conc8,1KiB", F: func(b *testing.B) {
			c := perfTransportClient(b)
			req := perfEchoReq{Payload: payload}
			const conc = 8
			b.SetBytes(int64(len(payload) * conc))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				errs := make([]error, conc)
				for j := 0; j < conc; j++ {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						_, errs[j] = transport.CallTypedContext[perfEchoReq, perfEchoResp](context.Background(), c, "echo", req)
					}(j)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}},
		// The frame, the mux hand-offs and the goroutine per request with no
		// body at all: the floor under every call of a round.
		{Name: "transport/Call/raw,empty", F: func(b *testing.B) {
			c := perfTransportClient(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.CallContext(context.Background(), "noop", nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The Encode/Decode benches track the data-plane body codec on the
		// message the upload path actually sends. They were re-baselined
		// when the fragment path moved from gob to the fixed-layout binary
		// codec (same names, deliberately: the baseline refresh is the
		// recorded evidence of the switch).
		{Name: "transport/Encode/vec4096", F: func(b *testing.B) {
			req := core.UploadReq{Round: 7, PartyID: "P1", Frag: 2, Fragment: wireVec, Weight: 0.25}
			b.SetBytes(int64(len(wireVec) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := transport.Encode(req); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "transport/Decode/vec4096", F: func(b *testing.B) {
			body, err := transport.Encode(core.UploadReq{Round: 7, PartyID: "P1", Frag: 2, Fragment: wireVec, Weight: 0.25})
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(wireVec) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var req core.UploadReq
				if err := transport.Decode(body, &req); err != nil {
					b.Fatal(err)
				}
				tensor.PutVector(tensor.Vector(req.Fragment))
			}
		}},
	}
}
