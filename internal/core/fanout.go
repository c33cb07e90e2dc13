package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"deta/internal/tensor"
	"deta/internal/transport"
)

// Group is a minimal errgroup-style helper (stdlib-only): run goroutines,
// wait for all of them, and get every error back joined. Unlike
// x/sync/errgroup it does not cancel siblings — DeTA fan-outs want every
// aggregator's outcome so quorum logic can count successes.
type Group struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

// Go runs f on its own goroutine, capturing its error.
func (g *Group) Go(f func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := f(); err != nil {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every Go-launched function returns, then reports their
// errors joined (nil if all succeeded).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return errors.Join(g.errs...)
}

// Fleet is the party-side handle to all K aggregators of a deployment. It
// fans every protocol step out to the whole fleet concurrently — the round
// cost is the slowest aggregator, not the sum — and applies per-call
// deadlines and quorum degradation so one stalled or dead aggregator
// degrades a round instead of hanging it (the paper's §8.2 straggler
// argument, applied to aggregators).
type Fleet struct {
	Clients []*AggregatorClient

	// Quorum is the minimum number of aggregators whose fan-out RPCs must
	// succeed for the round to proceed; 0 (or >= K) requires all of them.
	// Missing download fragments degrade to the caller-provided fallback.
	Quorum int

	// Timeout bounds each RPC attempt (0 = only the caller's context
	// bounds it). A per-call timeout classifies a stalled aggregator as
	// down for this fan-out without waiting out the whole round deadline.
	Timeout time.Duration

	// Poll schedules DownloadAll's not-yet-aggregated retries: jittered
	// capped-exponential backoff instead of a fixed busy-poll, so a slow
	// round costs a handful of RPCs, not thousands, while an about-to-
	// finish one is picked up within milliseconds. Zero-value fields
	// default to 2ms initial delay, 250ms cap, factor 2, ±20% jitter.
	Poll transport.Backoff

	// Clock schedules the poll waits (nil = SystemClock); tests inject a
	// FakeClock so polling is deterministic.
	Clock Clock
}

// K is the fleet size.
func (f *Fleet) K() int { return len(f.Clients) }

func (f *Fleet) required() int {
	if f.Quorum > 0 && f.Quorum < len(f.Clients) {
		return f.Quorum
	}
	return len(f.Clients)
}

func (f *Fleet) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if f.Timeout > 0 {
		return context.WithTimeout(ctx, f.Timeout)
	}
	return context.WithCancel(ctx)
}

func (f *Fleet) clk() Clock { return orSystem(f.Clock) }

func (f *Fleet) pollBackoff() transport.Backoff {
	b := f.Poll
	if b.Initial <= 0 {
		b.Initial = 2 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 250 * time.Millisecond
	}
	return b
}

// fanOut runs op for every aggregator concurrently and applies quorum
// accounting: err is nil when at least required() succeeded, otherwise
// every failure joined. ok[j] and errs[j] report aggregator j's outcome
// either way, so callers can refuse to tolerate specific failure classes
// even under a met quorum. The joined error wraps each aggregator's typed
// verdict: errors.Is(err, ErrRoundAbandoned) on a failed UploadAll or
// DownloadAll means skip the round, not retry it.
func (f *Fleet) fanOut(op func(j int, a *AggregatorClient) error) (ok []bool, errs []error, err error) {
	ok = make([]bool, len(f.Clients))
	errs = make([]error, len(f.Clients))
	var g Group
	for j, a := range f.Clients {
		j, a := j, a
		g.Go(func() error {
			if e := op(j, a); e != nil {
				errs[j] = fmt.Errorf("core: aggregator %s: %w", a.ID, e)
				return nil // quorum accounting below, not Group error
			}
			ok[j] = true
			return nil
		})
	}
	g.Wait()
	succeeded := 0
	for _, o := range ok {
		if o {
			succeeded++
		}
	}
	if succeeded < f.required() {
		return ok, errs, fmt.Errorf("core: fan-out reached %d/%d aggregators (quorum %d): %w",
			succeeded, len(f.Clients), f.required(), errors.Join(errs...))
	}
	return ok, errs, nil
}

// VerifyAndRegisterAll runs Phase II against every aggregator in parallel.
// tokenPubKey fetches the AP-attested token key for an aggregator ID (the
// fetches also run concurrently — the AP client is multiplexed).
// Connectivity failures are tolerated down to the quorum, but a
// cryptographic verification failure (ErrVerificationFailed) always aborts:
// an unverifiable aggregator that is up is an adversary, not a straggler.
func (f *Fleet) VerifyAndRegisterAll(ctx context.Context, partyID string,
	tokenPubKey func(aggID string) ([]byte, error),
	newNonce func() ([]byte, error), verify func(pub, nonce, sig []byte) error) error {
	_, errs, err := f.fanOut(func(j int, a *AggregatorClient) error {
		pub, err := tokenPubKey(a.ID)
		if err != nil {
			return err
		}
		cctx, cancel := f.callCtx(ctx)
		defer cancel()
		return VerifyAndRegister(cctx, a, pub, partyID, newNonce, verify)
	})
	// Even with the quorum met, a failed *verification* is never a mere
	// availability problem.
	for _, e := range errs {
		if e != nil && errors.Is(e, ErrVerificationFailed) {
			return fmt.Errorf("core: refusing to train: %w", e)
		}
	}
	return err
}

// UploadAll sends fragment j to aggregator j for all j concurrently.
// len(frags) must equal K. Under quorum, a subset of failed uploads is
// tolerated; the corresponding aggregators simply miss this party's
// contribution for the round.
func (f *Fleet) UploadAll(ctx context.Context, round int, partyID string, frags []tensor.Vector, weight float64) error {
	if len(frags) != len(f.Clients) {
		return fmt.Errorf("core: %d fragments for %d aggregators", len(frags), len(f.Clients))
	}
	_, _, err := f.fanOut(func(j int, a *AggregatorClient) error {
		cctx, cancel := f.callCtx(ctx)
		defer cancel()
		return a.Upload(cctx, round, partyID, frags[j], j, weight)
	})
	return err
}

// DownloadAll fetches every aggregator's fused fragment for the round
// concurrently, polling while a healthy aggregator has not aggregated yet
// and giving up on an aggregator whose RPC fails or times out. If at least
// the quorum delivered and fallback is non-nil, missing entries degrade to
// fallback[j] — conventionally the party's own uploaded fragment, so the
// merged model falls back to the local update on the partition a dead
// aggregator owned. The caller's ctx bounds the total wait.
func (f *Fleet) DownloadAll(ctx context.Context, round int, partyID string, fallback []tensor.Vector) ([]tensor.Vector, error) {
	if fallback != nil && len(fallback) != len(f.Clients) {
		return nil, fmt.Errorf("core: %d fallback fragments for %d aggregators", len(fallback), len(f.Clients))
	}
	frags := make([]tensor.Vector, len(f.Clients))
	backoff := f.pollBackoff()
	clk := f.clk()
	ok, _, err := f.fanOut(func(j int, a *AggregatorClient) error {
		for attempt := 0; ; attempt++ {
			cctx, cancel := f.callCtx(ctx)
			frag, err := a.Download(cctx, round, partyID)
			cancel()
			if err == nil {
				frags[j] = frag
				return nil
			}
			if !errors.Is(err, ErrNotAggregated) {
				// Connection failure, per-call timeout, an abandoned
				// round, or a remote rejection: this aggregator is down
				// for the round.
				return err
			}
			// Not aggregated yet: back off (jittered, capped) and poll
			// again, aborting promptly if the caller cancels.
			select {
			case <-ctx.Done():
				return fmt.Errorf("waiting for round %d fragment: %w", round, ctx.Err())
			case <-clk.After(backoff.Delay(attempt)):
			}
		}
	})
	if err != nil {
		return nil, err
	}
	for j := range frags {
		if !ok[j] {
			if fallback == nil {
				return nil, fmt.Errorf("core: aggregator %s missing from round %d and no fallback", f.Clients[j].ID, round)
			}
			frags[j] = fallback[j]
		}
	}
	return frags, nil
}

// Stats snapshots every aggregator link's transport counters, keyed by
// aggregator ID — the per-aggregator latency/retry surface the round loop
// logs.
func (f *Fleet) Stats() map[string]transport.StatsSnapshot {
	out := make(map[string]transport.StatsSnapshot, len(f.Clients))
	for _, a := range f.Clients {
		out[a.ID] = a.Stats()
	}
	return out
}

// HeartbeatAll sends a liveness heartbeat to every aggregator
// concurrently. Best-effort by design — a missed heartbeat is exactly the
// signal the liveness tracker exists to notice — so unlike the round
// fan-outs it never fails on quorum; it reports how many aggregators
// acknowledged and which of them readmitted the party (sorted).
func (f *Fleet) HeartbeatAll(ctx context.Context, partyID string) (acked int, rejoinedAt []string) {
	var mu sync.Mutex
	var g Group
	for _, a := range f.Clients {
		a := a
		g.Go(func() error {
			cctx, cancel := f.callCtx(ctx)
			defer cancel()
			rejoined, err := a.Heartbeat(cctx, partyID)
			if err != nil {
				return nil // best-effort: silence is the signal
			}
			mu.Lock()
			acked++
			if rejoined {
				rejoinedAt = append(rejoinedAt, a.ID)
			}
			mu.Unlock()
			return nil
		})
	}
	g.Wait()
	sort.Strings(rejoinedAt)
	return acked, rejoinedAt
}
