package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"deta/internal/core"
	"deta/internal/tensor"
)

// eachDriver runs fn for every party on the party's driver goroutine:
// driver d plays parties d, d+D, d+2D, ... one after another, so D parties
// are in flight at once.
func (c *cluster) eachDriver(fn func(driver, party int) error) error {
	errs := make([]error, c.w.Drivers)
	var wg sync.WaitGroup
	for d := 0; d < c.w.Drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := d; p < c.w.Parties; p += c.w.Drivers {
				if err := fn(d, p); err != nil {
					errs[d] = fmt.Errorf("party %s: %w", c.ids[p], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// playRound plays one whole DeTA round in five barriers and returns the
// parts of its critical path as timed from outside, the number of parties
// whose output failed the oracle, and any RPC or transform error (which
// fails every party of the round). Per-party transform+inverse times land
// in c.tParty. Verification happens after the round span has ended, so it
// is inside no timed interval.
func (c *cluster) playRound(ctx context.Context, round int, rec *recorder) (crit phases, mismatched int, err error) {
	roundID := c.roundID(round)
	root := rec.begin("round", -1, round)
	defer func() {
		if err != nil {
			rec.end(root)
		}
	}()

	// (1) Every party transforms its update, one at a time so each is
	// timed on an otherwise idle process.
	for p := range c.ids {
		id := rec.begin("core.transform", root, round)
		t0 := time.Now()
		frags, err := core.Transform(c.mapper, c.shufflers[p], c.updates[p], roundID, c.w.Shuffle)
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return crit, 0, fmt.Errorf("transform %s: %w", c.ids[p], err)
		}
		c.frags[p], c.tParty[p] = frags, d
		crit.Transform = max(crit.Transform, int64(d))
	}

	// (2) Upload phase: D parties in flight, K fragments each.
	wire0 := c.wire.Load()
	t0 := time.Now()
	err = c.eachDriver(func(d, p int) error {
		id := rec.begin("core.upload_all", root, round)
		defer rec.end(id)
		return c.fleets[d].UploadAll(ctx, round, c.ids[p], c.frags[p], c.weights[p])
	})
	crit.Upload = int64(time.Since(t0))
	c.uploadWire += c.wire.Load() - wire0
	if err != nil {
		return crit, 0, fmt.Errorf("upload phase: %w", err)
	}

	if c.w.RestartEvery > 0 && round%c.w.RestartEvery == 0 {
		d, err := c.restart(ctx, rec, root, round)
		if err != nil {
			return crit, 0, fmt.Errorf("restart: %w", err)
		}
		crit.Recover = int64(d)
	}

	// (3) Fuse phase: the coordinator tells all K aggregators to fuse, as
	// the initiator's follower sync does once a round is complete.
	t0 = time.Now()
	var g core.Group
	for _, a := range c.coord.Clients {
		g.Go(func() error {
			id := rec.begin("core.aggregate", root, round)
			defer rec.end(id)
			cctx, cancel := context.WithTimeout(ctx, callTimeout)
			defer cancel()
			return a.Aggregate(cctx, round)
		})
	}
	err = g.Wait()
	crit.Fuse = int64(time.Since(t0))
	if err != nil {
		return crit, 0, fmt.Errorf("fuse phase: %w", err)
	}

	// (4) Download phase.
	t0 = time.Now()
	err = c.eachDriver(func(d, p int) error {
		id := rec.begin("core.download_all", root, round)
		defer rec.end(id)
		merged, err := c.fleets[d].DownloadAll(ctx, round, c.ids[p], nil)
		c.merged[p] = merged
		return err
	})
	crit.Download = int64(time.Since(t0))
	if err != nil {
		return crit, 0, fmt.Errorf("download phase: %w", err)
	}

	// (5) Every party inverts the fused fragments, one at a time, then
	// hands its upload fragments back to the pool as deta-party does.
	for p := range c.ids {
		id := rec.begin("core.inverse", root, round)
		t0 := time.Now()
		out, err := core.InverseTransform(c.mapper, c.shufflers[p], c.merged[p], roundID, c.w.Shuffle)
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return crit, 0, fmt.Errorf("inverse %s: %w", c.ids[p], err)
		}
		c.outputs[p] = out
		c.tParty[p] += d
		crit.Inverse = max(crit.Inverse, int64(d))
		for _, f := range c.frags[p] {
			tensor.PutVector(f)
		}
		c.frags[p], c.merged[p] = nil, nil
	}
	rec.end(root)

	for p, out := range c.outputs {
		if !bitIdentical(out, c.expected) {
			mismatched++
		}
		c.outputs[p] = nil
	}
	return crit, mismatched, nil
}

// bitIdentical is the oracle's comparison: same length and the same bits
// in every coordinate.
func bitIdentical(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// roundMS is each round's critical-path time in milliseconds.
func (s samples) roundMS() []float64 {
	out := make([]float64, len(s.crit))
	for i, p := range s.crit {
		out[i] = float64(p.total()) / 1e6
	}
	return out
}

// samples is what a stretch of rounds measured.
type samples struct {
	crit      []phases        // one per round
	party     []time.Duration // transform+inverse, one per party-round
	calib     []time.Duration // the reference kernel, one per calibEvery
	attempted int             // party-rounds
	failed    int
}

// play runs rounds first..., each numbered one past the last, until stop
// says so, and appends what they measured to s. It stops early on a
// round-level error: the deployment is in an unknown state after one.
func (c *cluster) play(ctx context.Context, first int, stop func(played int) bool, rec *recorder, s *samples) (next int, err error) {
	round := first
	for played := 0; !stop(played); played++ {
		crit, mismatched, err := c.playRound(ctx, round, rec)
		s.attempted += c.w.Parties
		if err != nil {
			s.failed += c.w.Parties
			return round + 1, fmt.Errorf("round %d: %w", round, err)
		}
		s.failed += mismatched
		s.crit = append(s.crit, crit)
		s.party = append(s.party, c.tParty...)
		if c.calib != nil && c.calib.due() {
			d, err := c.calib.run()
			if err != nil {
				return round + 1, err
			}
			s.calib = append(s.calib, d)
		}
		c.sampleJournals() // outside every timed interval

		round++
	}
	return round, nil
}
