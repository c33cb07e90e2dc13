package experiments

import (
	"context"
	"fmt"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/core"
	"deta/internal/rng"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// AblationGeoLatency measures one full DeTA round (Phase II verified
// upload -> fuse -> download) over RPC channels with injected one-way
// write delays, quantifying the cost of geo-distributing aggregators
// (paper §4.1 deploys them at different sites for breach independence).
func AblationGeoLatency(sc Scale) (*Table, error) {
	const parties = 4
	const params = 4096

	t := &Table{
		Title:  "Ablation: geo-distributed aggregators — round latency vs one-way link delay (4 parties, 3 aggregators, 4k params)",
		Header: []string{"LinkDelay", "RoundLatency", "Rounds/s"},
	}
	for _, delay := range []time.Duration{0, time.Millisecond, 5 * time.Millisecond} {
		elapsed, err := runGeoRound(parties, params, delay)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			delay.String(),
			elapsed.String(),
			fmt.Sprintf("%.1f", 1/elapsed.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"delays injected per frame write on party<->aggregator channels; training compute excluded",
		"uploads to independent aggregators are parallelizable in deployment; this measures the serial worst case")
	return t, nil
}

// runGeoRound bootstraps three aggregator servers behind latency-injected
// in-memory links and executes one aggregation round, returning its wall
// time.
func runGeoRound(parties, params int, delay time.Duration) (time.Duration, error) {
	vendor, err := sev.NewVendor()
	if err != nil {
		return 0, err
	}
	ap := attest.NewProxy(vendor.RAS(), core.OVMF)

	type aggHandle struct {
		node   *core.AggregatorNode
		client *core.AggregatorClient
		srv    *transport.Server
	}
	handles := make([]*aggHandle, 3)
	for j := range handles {
		platform, err := sev.NewPlatform("geo-host", vendor)
		if err != nil {
			return 0, err
		}
		cvm, err := platform.LaunchCVM(core.OVMF)
		if err != nil {
			return 0, err
		}
		id := fmt.Sprintf("agg-%d", j+1)
		if _, err := ap.Provision(id, platform, cvm); err != nil {
			return 0, err
		}
		node, err := core.NewAggregatorNode(id, agg.IterativeAverage{}, cvm)
		if err != nil {
			return 0, err
		}
		srv := transport.NewServer()
		core.ServeAggregator(node, srv)
		ln := transport.NewMemListener()
		go srv.Serve(transport.WithListenerLatency(ln, delay))
		conn, err := ln.Dial()
		if err != nil {
			return 0, err
		}
		handles[j] = &aggHandle{
			node:   node,
			client: &core.AggregatorClient{ID: id, C: transport.NewClient(transport.WithLatency(conn, delay))},
			srv:    srv,
		}
	}
	defer func() {
		for _, h := range handles {
			h.srv.Close()
		}
	}()

	mapper, err := core.NewMapper(params, core.EqualProportions(3), []byte("geo-mapper"))
	if err != nil {
		return 0, err
	}
	shuffler, err := core.NewShuffler([]byte("geo-permutation-key-0123456789ab"))
	if err != nil {
		return 0, err
	}
	roundID := []byte("geo-round")

	updates := make([]tensor.Vector, parties)
	st := rng.NewStream([]byte("geo-updates"), "v")
	for p := range updates {
		v := make(tensor.Vector, params)
		for i := range v {
			v[i] = st.NormFloat64()
		}
		updates[p] = v
	}
	for p := 0; p < parties; p++ {
		id := fmt.Sprintf("P%d", p+1)
		for _, h := range handles {
			h.node.Register(id)
		}
	}

	start := time.Now()
	for p := 0; p < parties; p++ {
		id := fmt.Sprintf("P%d", p+1)
		frags, err := core.Transform(mapper, shuffler, updates[p], roundID, true)
		if err != nil {
			return 0, err
		}
		for j, h := range handles {
			if err := h.client.Upload(context.Background(), 1, id, frags[j], j, 1); err != nil {
				return 0, err
			}
		}
	}
	merged := make([]tensor.Vector, 3)
	for j, h := range handles {
		if err := h.client.Aggregate(context.Background(), 1); err != nil {
			return 0, err
		}
		merged[j], err = h.client.Download(context.Background(), 1, "P1")
		if err != nil {
			return 0, err
		}
	}
	if _, err := core.InverseTransform(mapper, shuffler, merged, roundID, true); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
