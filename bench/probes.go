package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"deta/internal/core"
	"deta/internal/journal"
	"deta/internal/rng"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// probeFor is how long one layer probe keeps calling, once it has made
// probeMinOps calls. The tests shorten it.
var probeFor = 150 * time.Millisecond

const (
	probeMinOps = 20
	// probeMaxBytes caps what one probe writes to disk or leaves for the
	// collector, whatever the fragment size.
	probeMaxBytes = 64 << 20
	// recUpload is core's journal record type for an accepted fragment;
	// the scratch journal only needs some valid type byte.
	recUpload = 8
)

// probe calls op until probeFor has passed (and at least probeMinOps
// times, at most maxOps), after one unmeasured call. op times the part of
// itself that counts and returns it. The result is the median of those
// times in microseconds and the process-wide mallocs per call.
func probe(maxOps int, op func() (time.Duration, error)) (us, allocs float64, err error) {
	if _, err := op(); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var times []time.Duration
	for start := time.Now(); len(times) < max(maxOps, 1); {
		d, err := op()
		if err != nil {
			return 0, 0, err
		}
		times = append(times, d)
		if len(times) >= probeMinOps && time.Since(start) >= probeFor {
			break
		}
	}
	runtime.ReadMemStats(&after)
	return median(toUS(times)), float64(after.Mallocs-before.Mallocs) / float64(len(times)), nil
}

// timed adapts a call that is measured whole.
func timed(fn func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	}
}

// opsWithin is how many operations of size bytes fit the probe byte cap.
func opsWithin(bytes int) int {
	return min(2000, max(probeMinOps, probeMaxBytes/max(bytes, 1)))
}

// probeLayers times each layer's public API directly, on the workload's
// own inputs: its fragment length, party count, listener kind and journal
// mode. firstRound is a round number no aggregator has seen yet.
func (c *cluster) probeLayers(ctx context.Context, firstRound int, scratch string, values map[string]metric) error {
	set := func(name string, v float64, n int) { values[name] = metric{Value: v, N: n} }
	fragLen := c.mapper.Counts()[0]
	fragBytes := 8 * fragLen

	// One fragment per party for partition 0, as the aggregators see them.
	probeRound := c.roundID(firstRound)
	partyFrags := make([]tensor.Vector, len(c.ids))
	for p := range c.ids {
		frags, err := core.Transform(c.mapper, c.shufflers[p], c.updates[p], probeRound, c.w.Shuffle)
		if err != nil {
			return err
		}
		partyFrags[p] = frags[0]
	}

	// rng: the permutation a party derives per fragment per round.
	permSeed := rng.DeriveSeed(c.seed, []byte("probe-perm"))
	us, allocs, err := probe(2000, timed(func() error {
		rng.NewStream(permSeed, "param-shuffle").Perm(fragLen)
		return nil
	}))
	if err != nil {
		return err
	}
	set("rng.perm_us", us, 0)
	set("rng.perm_allocs", allocs, 0)

	// core, party side: a fresh round ID derives K permutations, the same
	// one again only gathers.
	fresh := firstRound + 1<<20
	transform := func(roundID func() []byte) func() (time.Duration, error) {
		return func() (time.Duration, error) {
			id := roundID()
			t0 := time.Now()
			frags, err := core.Transform(c.mapper, c.shufflers[0], c.updates[0], id, c.w.Shuffle)
			d := time.Since(t0)
			for _, f := range frags {
				tensor.PutVector(f)
			}
			return d, err
		}
	}
	if us, _, err = probe(2000, transform(func() []byte { fresh++; return c.roundID(fresh) })); err != nil {
		return err
	}
	set("core.transform_us", us, 0)
	if us, _, err = probe(2000, transform(func() []byte { return probeRound })); err != nil {
		return err
	}
	set("core.transform_warm_us", us, 0)
	fused, err := core.Transform(c.mapper, c.shufflers[0], c.expected, probeRound, c.w.Shuffle)
	if err != nil {
		return err
	}
	if us, _, err = probe(2000, timed(func() error {
		_, err := core.InverseTransform(c.mapper, c.shufflers[0], fused, probeRound, c.w.Shuffle)
		return err
	})); err != nil {
		return err
	}
	set("core.inverse_us", us, 0)

	// core, fan-out without queueing: one driver uploads every party's
	// fragments in turn on the live deployment.
	var serial []time.Duration
	round := firstRound + 1
	for start := time.Now(); len(serial) < 3*len(c.ids) || time.Since(start) < 3*probeFor; round++ {
		roundID := c.roundID(round)
		for p := range c.ids {
			frags, err := core.Transform(c.mapper, c.shufflers[p], c.updates[p], roundID, c.w.Shuffle)
			if err != nil {
				return err
			}
			t0 := time.Now()
			err = c.fleets[0].UploadAll(ctx, round, c.ids[p], frags, c.weights[p])
			serial = append(serial, time.Since(t0))
			if err != nil {
				return err
			}
			for _, f := range frags {
				tensor.PutVector(f)
			}
		}
		// Fuse, so retention evicts the round like any other.
		for _, a := range c.coord.Clients {
			if err := a.Aggregate(ctx, round); err != nil {
				return err
			}
		}
	}
	serialUS := median(toUS(serial))
	set("core.upload_all_serial_us", serialUS, len(serial))

	// transport: an empty call and a fragment-sized call to a handler
	// that does nothing, over the workload's kind of listener; then the
	// body codec on its own.
	req := core.UploadReq{Round: firstRound, PartyID: c.ids[0], Fragment: partyFrags[0], Weight: c.weights[0]}
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	srv := transport.NewServer()
	srv.Handle("bench.Sink", func([]byte) ([]byte, error) { return nil, nil })
	ln, dial, err := listen(c.tls)
	if err != nil {
		return err
	}
	go srv.Serve(ln) // returns when srv.Close closes ln
	defer srv.Close()
	client, err := c.client(ctx, dial, nil)
	if err != nil {
		return err
	}
	defer client.Close()
	call := func(body []byte) func() error {
		return func() error {
			_, err := client.CallContext(ctx, "bench.Sink", body)
			return err
		}
	}
	if us, allocs, err = probe(2000, timed(call(nil))); err != nil {
		return err
	}
	set("transport.call_empty_us", us, 0)
	set("transport.call_empty_allocs", allocs, 0)
	callFragUS, _, err := probe(opsWithin(len(body)), timed(call(body)))
	if err != nil {
		return err
	}
	set("transport.call_frag_us", callFragUS, 0)
	encodeUS, allocs, err := probe(opsWithin(len(body)), timed(func() error {
		_, err := transport.Encode(req)
		return err
	}))
	if err != nil {
		return err
	}
	set("transport.encode_us", encodeUS, 0)
	set("transport.encode_allocs", allocs, 0)
	// The decoded fragment is left to the collector, as an aggregator
	// leaves an evicted round's fragments.
	decodeUS, allocs, err := probe(opsWithin(len(body)), timed(func() error {
		var out core.UploadReq
		return transport.Decode(body, &out)
	}))
	if err != nil {
		return err
	}
	set("transport.decode_us", decodeUS, 0)
	set("transport.decode_allocs", allocs, 0)

	// journal: one fragment-record-sized append on a scratch journal.
	// A workload without a journal is probed with fsync on, which is what
	// turning its journal on in a deployment would cost.
	appendUS := func(opts journal.Options) (float64, error) {
		dir := filepath.Join(scratch, "append")
		j, _, err := journal.Open(dir, opts)
		if err != nil {
			return 0, err
		}
		us, _, err := probe(opsWithin(len(body)), timed(func() error { return j.Append(recUpload, body) }))
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		return us, err
	}
	syncMode := c.w.Journal
	if syncMode == journalOff {
		syncMode = journalFsync
	}
	if us, err = appendUS(syncMode.options()); err != nil {
		return err
	}
	set("journal.append_us", us, 0)
	if us, err = appendUS(journal.Options{NoSync: true}); err != nil {
		return err
	}
	set("journal.append_nosync_us", us, 0)

	// core, aggregator side: direct calls on bench-local nodes, without
	// and with a journal. Enough rounds for about half a compaction
	// interval of records, so the journalled node's directory is what a
	// restart typically replays.
	rounds := max(retention, min(512/(2*len(c.ids)+1), probeMaxBytes/(len(c.ids)*fragBytes)))
	bare, err := core.NewAggregatorNode("agg-probe", c.w.Algorithm, c.cvms[0])
	if err != nil {
		return err
	}
	bareTimes, err := c.driveNode(bare, partyFrags, rounds)
	if err != nil {
		return err
	}
	set("core.node_upload_nojournal_us", median(toUS(bareTimes.upload)), len(bareTimes.upload))
	nodeMode := c.w.Journal
	if nodeMode == journalOff {
		nodeMode = journalNoSync
	}
	nodeDir := filepath.Join(scratch, "node")
	logged, _, err := core.RecoverAggregatorNode("agg-probe", c.w.Algorithm, c.cvms[0], nodeDir, nodeMode.options())
	if err != nil {
		return err
	}
	times, err := c.driveNode(logged, partyFrags, rounds)
	if cerr := logged.CloseJournal(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if c.w.Journal == journalOff {
		times = bareTimes
	}
	nodeUploadUS := median(toUS(times.upload))
	set("core.node_upload_us", nodeUploadUS, len(times.upload))
	set("core.node_aggregate_us", median(toUS(times.aggregate)), len(times.aggregate))
	set("core.node_download_us", median(toUS(times.download)), len(times.download))

	// journal and core, read side: open and replay that node's directory.
	var records int
	if us, _, err = probe(50, timed(func() error {
		j, rec, err := journal.Open(nodeDir, nodeMode.options())
		if err != nil {
			return err
		}
		records = len(rec.Records)
		return j.Close()
	})); err != nil {
		return err
	}
	set("journal.replay_us", us, 0)
	set("journal.replay_records", float64(records), 0)
	if us, _, err = probe(50, func() (time.Duration, error) {
		t0 := time.Now()
		node, _, err := core.RecoverAggregatorNode("agg-probe", c.w.Algorithm, c.cvms[0], nodeDir, nodeMode.options())
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, node.CloseJournal()
	}); err != nil {
		return err
	}
	set("core.recover_us", us, 0)
	if err := os.RemoveAll(nodeDir); err != nil {
		return err
	}

	// agg: the fusion kernel over N fragments.
	if us, allocs, err = probe(2000, timed(func() error {
		_, err := c.w.Algorithm.Aggregate(partyFrags, c.weights)
		return err
	})); err != nil {
		return err
	}
	set("agg.fuse_us", us, 0)
	set("agg.fuse_allocs", allocs, 0)

	// What one upload costs beyond the layers probed on their own. Going
	// negative means the probes overlap; closing it is the job of spans
	// inside the program.
	set("rpc.residual_us", serialUS-(encodeUS+callFragUS+decodeUS+nodeUploadUS), 0)
	return nil
}

// nodeTimes are per-call times of direct calls on an aggregator node.
type nodeTimes struct{ upload, aggregate, download []time.Duration }

// driveNode registers every party at node and plays rounds on it by
// direct calls: N owned uploads, one aggregate, N downloads.
func (c *cluster) driveNode(node *core.AggregatorNode, partyFrags []tensor.Vector, rounds int) (nodeTimes, error) {
	var t nodeTimes
	node.SetRetention(retention)
	for _, id := range c.ids {
		node.Register(id)
	}
	for r := 1; r <= rounds; r++ {
		for p, id := range c.ids {
			// The RPC handler hands the node a buffer decoded for this
			// request; so does the probe.
			frag := tensor.GetVector(len(partyFrags[p]))
			copy(frag, partyFrags[p])
			t0 := time.Now()
			err := node.UploadOwned(r, id, frag, c.weights[p])
			t.upload = append(t.upload, time.Since(t0))
			if err != nil {
				return t, fmt.Errorf("probe upload: %w", err)
			}
		}
		t0 := time.Now()
		err := node.Aggregate(r)
		t.aggregate = append(t.aggregate, time.Since(t0))
		if err != nil {
			return t, fmt.Errorf("probe aggregate: %w", err)
		}
		for _, id := range c.ids {
			t0 := time.Now()
			_, err := node.Download(r, id)
			t.download = append(t.download, time.Since(t0))
			if err != nil {
				return t, fmt.Errorf("probe download: %w", err)
			}
		}
	}
	return t, nil
}
