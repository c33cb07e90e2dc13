package main

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"deta/internal/attest"
	"deta/internal/core"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

const (
	// retention is how many fused rounds each aggregator keeps in memory.
	retention = 4
	// callTimeout bounds one RPC; a call that exceeds it fails its
	// party-round instead of stalling the run.
	callTimeout = 30 * time.Second
)

// cluster is one provisioned deployment: K aggregator nodes behind RPC
// servers, D driver fleets and one coordinator fleet dialled into them,
// and the party-side state (mapper, shufflers, inputs, expected output).
type cluster struct {
	w     workload
	seed  []byte
	dir   string // journals live under dir/<aggregator ID>
	proxy *attest.Proxy
	tls   *transport.TLSMaterials

	aggIDs  []string
	cvms    []*sev.CVM
	nodes   []*core.AggregatorNode
	servers []*transport.Server
	dials   []func(context.Context) (net.Conn, error)

	fleets []*core.Fleet // one per driver
	coord  *core.Fleet   // stands in for the initiator
	// traced turns on the counters only a traced run reports: wire bytes
	// on the driver fleets' connections and journal file growth.
	traced bool
	wire   atomic.Int64
	// retired accumulates the counters of fleets closed by a restart, so
	// call counts survive re-dialling.
	retired transport.StatsSnapshot
	// uploadWire is the share of wire's count moved during upload phases.
	uploadWire int64
	// journalWritten estimates the bytes the aggregators' journals wrote,
	// from the file sizes sampleJournals has seen.
	journalWritten int64
	journalSeen    map[string]journalFiles

	mapper    *core.Mapper
	ids       []string
	weights   []float64
	updates   []tensor.Vector
	shufflers []*core.Shuffler // nil entries when the workload does not shuffle
	expected  tensor.Vector    // central Algorithm.Aggregate over the ID-sorted parties

	// calib, when set, is timed once per round; see calibrator.
	calib *calibrator

	// Per-round scratch, indexed by party.
	frags   [][]tensor.Vector
	merged  [][]tensor.Vector
	outputs []tensor.Vector
	tParty  []time.Duration
}

// setup provisions a whole deployment. Everything it does is what
// setup_s reports: vendor, platforms and CVMs, Phase I provisioning, TLS
// materials, journals, listeners, dials, Phase II for all N parties, the
// mapper, the inputs and the oracle's expected output.
func setup(ctx context.Context, w workload, seed []byte, dir string, traced bool) (c *cluster, err error) {
	c = &cluster{w: w, seed: seed, dir: dir, traced: traced}
	defer func() {
		if err != nil {
			_ = c.close() // the set-up error is the one worth reporting
		}
	}()

	vendor, err := sev.NewVendor()
	if err != nil {
		return c, err
	}
	c.proxy = attest.NewProxy(vendor.RAS(), core.OVMF)
	if w.TLS {
		if c.tls, err = transport.NewTLSMaterials("deta-bench", []string{"127.0.0.1"}); err != nil {
			return c, err
		}
	}
	for j := 0; j < w.Aggregators; j++ {
		id := fmt.Sprintf("agg-%d", j+1)
		platform, err := sev.NewPlatform("host-"+id, vendor)
		if err != nil {
			return c, err
		}
		cvm, err := platform.LaunchCVM(core.OVMF)
		if err != nil {
			return c, err
		}
		if _, err := c.proxy.Provision(id, platform, cvm); err != nil {
			return c, err
		}
		c.aggIDs = append(c.aggIDs, id)
		c.cvms = append(c.cvms, cvm)
	}
	c.nodes = make([]*core.AggregatorNode, w.Aggregators)
	c.servers = make([]*transport.Server, w.Aggregators)
	c.dials = make([]func(context.Context) (net.Conn, error), w.Aggregators)
	for j := range c.aggIDs {
		if c.nodes[j], err = c.openNode(j); err != nil {
			return c, err
		}
		if err := c.serve(j); err != nil {
			return c, err
		}
	}
	if err := c.dialFleets(ctx); err != nil {
		return c, err
	}

	// Party side. Every party has its own shuffler, so the permutation
	// cache misses on Transform and hits on InverseTransform, as it does
	// when each party is its own process.
	c.mapper, err = core.NewMapper(w.Params, core.EqualProportions(w.Aggregators), rng.DeriveSeed(seed, []byte("mapper")))
	if err != nil {
		return c, err
	}
	permKey := rng.DeriveSeed(seed, []byte("perm-key"))
	for p := 0; p < w.Parties; p++ {
		id := fmt.Sprintf("P%04d", p)
		c.ids = append(c.ids, id)
		c.weights = append(c.weights, float64(100+p))
		stream := rng.NewStream(seed, id)
		update := make(tensor.Vector, w.Params)
		for i := range update {
			update[i] = 2*stream.Float64() - 1
		}
		c.updates = append(c.updates, update)
		var sh *core.Shuffler
		if w.Shuffle {
			if sh, err = core.NewShuffler(permKey); err != nil {
				return c, err
			}
		}
		c.shufflers = append(c.shufflers, sh)
		fleet := c.fleets[p%w.Drivers]
		if err := fleet.VerifyAndRegisterAll(ctx, id, c.proxy.TokenPubKey, attest.NewNonce, attest.VerifyChallenge); err != nil {
			return c, err
		}
	}
	// Zero-padded IDs make index order the sorted order the nodes fuse in.
	if c.expected, err = w.Algorithm.Aggregate(c.updates, c.weights); err != nil {
		return c, err
	}
	c.frags = make([][]tensor.Vector, w.Parties)
	c.merged = make([][]tensor.Vector, w.Parties)
	c.outputs = make([]tensor.Vector, w.Parties)
	c.tParty = make([]time.Duration, w.Parties)
	return c, nil
}

// openNode starts aggregator j's service, replaying its journal when the
// workload keeps one.
func (c *cluster) openNode(j int) (*core.AggregatorNode, error) {
	var (
		node *core.AggregatorNode
		err  error
	)
	if c.w.Journal == journalOff {
		node, err = core.NewAggregatorNode(c.aggIDs[j], c.w.Algorithm, c.cvms[j])
	} else {
		node, _, err = core.RecoverAggregatorNode(c.aggIDs[j], c.w.Algorithm, c.cvms[j],
			core.StateDirFor(c.dir, c.aggIDs[j]), c.w.Journal.options())
	}
	if err != nil {
		return nil, err
	}
	node.SetRetention(retention)
	return node, nil
}

// serve puts node j behind a fresh RPC server and listener.
func (c *cluster) serve(j int) error {
	srv := transport.NewServer()
	core.ServeAggregator(c.nodes[j], srv)
	ln, dial, err := listen(c.tls)
	if err != nil {
		return err
	}
	go srv.Serve(ln) // returns when srv.Close closes ln
	c.servers[j] = srv
	c.dials[j] = dial
	return nil
}

// listen opens the workload's kind of listener and returns a dialler for
// it: loopback TCP+TLS when mats is set, the in-memory listener otherwise.
func listen(mats *transport.TLSMaterials) (net.Listener, func(context.Context) (net.Conn, error), error) {
	if mats == nil {
		ln := transport.NewMemListener()
		return ln, func(context.Context) (net.Conn, error) { return ln.Dial() }, nil
	}
	ln, err := mats.ListenTLS("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	addr := ln.Addr().String()
	return ln, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}, nil
}

// client dials a server of this deployment's listener kind. The byte
// counter, when present, sits under TLS, so it sees what crosses the wire.
func (c *cluster) client(ctx context.Context, dial func(context.Context) (net.Conn, error), count *atomic.Int64) (*transport.Client, error) {
	conn, err := dial(ctx)
	if err != nil {
		return nil, err
	}
	if count != nil {
		conn = &countingConn{Conn: conn, n: count}
	}
	if c.tls != nil {
		tc := tls.Client(conn, c.tls.ClientConfig("127.0.0.1"))
		if err := tc.HandshakeContext(ctx); err != nil {
			_ = conn.Close() // the handshake error is the one worth reporting
			return nil, err
		}
		conn = tc
	}
	return transport.NewClient(conn), nil
}

func (c *cluster) dialFleet(ctx context.Context, count *atomic.Int64) (*core.Fleet, error) {
	f := &core.Fleet{Timeout: callTimeout}
	for j, id := range c.aggIDs {
		cl, err := c.client(ctx, c.dials[j], count)
		if err != nil {
			closeFleet(f)
			return nil, err
		}
		f.Clients = append(f.Clients, &core.AggregatorClient{ID: id, C: cl})
	}
	return f, nil
}

func (c *cluster) dialFleets(ctx context.Context) error {
	var count *atomic.Int64
	if c.traced {
		count = &c.wire
	}
	for d := 0; d < c.w.Drivers; d++ {
		f, err := c.dialFleet(ctx, count)
		if err != nil {
			return err
		}
		c.fleets = append(c.fleets, f)
	}
	var err error
	c.coord, err = c.dialFleet(ctx, nil)
	return err
}

func closeFleet(f *core.Fleet) {
	if f == nil {
		return
	}
	for _, a := range f.Clients {
		_ = a.C.Close() // Client.Close never fails
	}
}

// hangUp closes every fleet, keeping their call counters.
func (c *cluster) hangUp() {
	c.retired = c.callStats()
	for _, f := range c.fleets {
		closeFleet(f)
	}
	closeFleet(c.coord)
	c.fleets, c.coord = nil, nil
}

// callStats sums the transport counters of every fleet this cluster has
// had.
func (c *cluster) callStats() transport.StatsSnapshot {
	total := c.retired
	add := func(f *core.Fleet) {
		if f == nil {
			return
		}
		for _, s := range f.Stats() {
			total.Calls += s.Calls
			total.Failures += s.Failures
			total.Timeouts += s.Timeouts
			total.Retries += s.Retries
		}
	}
	for _, f := range c.fleets {
		add(f)
	}
	add(c.coord)
	return total
}

// restart crashes all K aggregators and brings them back from their
// journals: servers and journals closed, nodes rebuilt by replay, fleets
// re-dialled. It returns the slowest node's recovery time; aggregators
// sit on their own hosts, so that is what the round waits for.
func (c *cluster) restart(ctx context.Context, rec *recorder, parent, round int) (time.Duration, error) {
	c.hangUp()
	for j, srv := range c.servers {
		srv.Close()
		if err := c.nodes[j].CloseJournal(); err != nil {
			return 0, err
		}
	}
	var slowest time.Duration
	for j := range c.nodes {
		id := rec.begin("core.recover", parent, round)
		t0 := time.Now()
		node, err := c.openNode(j)
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return 0, fmt.Errorf("recovering %s: %w", c.aggIDs[j], err)
		}
		c.nodes[j] = node
		if got := node.LastAggregatedRound(); got != round-1 {
			return 0, fmt.Errorf("%s recovered at round %d, want %d", c.aggIDs[j], got, round-1)
		}
		slowest = max(slowest, d)
		if err := c.serve(j); err != nil {
			return 0, err
		}
	}
	return slowest, c.dialFleets(ctx)
}

// close tears the deployment down: clients, servers, listeners, journals
// and the state directory.
func (c *cluster) close() error {
	c.hangUp()
	var errs []error
	for j, srv := range c.servers {
		if srv != nil {
			srv.Close()
		}
		if c.nodes[j] != nil {
			errs = append(errs, c.nodes[j].CloseJournal())
		}
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// roundID is the training identifier the key broker would dispatch for a
// round; derived from the seed so a run is reproducible.
func (c *cluster) roundID(round int) []byte {
	return rng.DeriveSeed(c.seed, []byte(fmt.Sprintf("round-%d", round)))[:16]
}

// journalFiles is what one aggregator's state directory looked like at the
// last sample.
type journalFiles struct {
	wal      int64
	snap     int64
	snapTime time.Time
}

// sampleJournals adds what the journals wrote since the last sample to
// journalWritten: the log's growth, and a snapshot's size whenever a new
// one appeared. A compaction truncates the log, so the records appended
// between the previous sample and a compaction are missed; with a sample
// per round that is at most one round's records per compaction interval.
func (c *cluster) sampleJournals() {
	if !c.traced || c.w.Journal == journalOff {
		return
	}
	if c.journalSeen == nil {
		c.journalSeen = make(map[string]journalFiles)
	}
	for _, id := range c.aggIDs {
		dir := core.StateDirFor(c.dir, id)
		seen, first := c.journalSeen[id]
		now := seen
		if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err == nil {
			now.wal = fi.Size()
		}
		if fi, err := os.Stat(filepath.Join(dir, "snapshot.bin")); err == nil {
			now.snap, now.snapTime = fi.Size(), fi.ModTime()
		}
		c.journalSeen[id] = now
		if !first {
			continue
		}
		if now.snapTime != seen.snapTime || now.snap != seen.snap {
			c.journalWritten += now.snap + now.wal
		} else {
			c.journalWritten += max(0, now.wal-seen.wal)
		}
	}
}

// countingConn counts the bytes a connection moves in both directions.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// Write counts before it writes: the peer can answer, and the caller take
// its reading, before a writer goroutine that has finished the write runs
// again. A failed write fails the run anyway.
func (c *countingConn) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return c.Conn.Write(p)
}
