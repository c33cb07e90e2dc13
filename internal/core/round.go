package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deta/internal/attest"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Round orchestration, once: RoundStep is the party's side of a round over
// a Fleet, Initiator is the initiator aggregator's fusion sync over its
// followers (paper §4.1). deta-party, deta-aggregator, Session and the
// e2e/chaos tests all drive rounds through these two.

// RoundStep runs one party's protocol steps against the fleet: enrolment
// (Join), then per round Trans → K uploads (Upload) and K downloads →
// Trans⁻¹ (Finish). The round is split in two because its drivers act in
// between: Session fuses there, the chaos script kills aggregators there.
// One RoundStep may serve several party IDs (Session's does).
type RoundStep struct {
	Fleet    *Fleet
	Mapper   *Mapper
	Shuffler *Shuffler
	Shuffle  bool

	// Deadline bounds each step. Until it expires a failed fan-out is
	// re-driven as a whole under stepBackoff — uploads are idempotent on the
	// server and downloads are reads, so a crashed-and-restarted aggregator
	// (journal recovery + Redial) is simply retried into. Zero means one
	// attempt: with no deadline there is nothing to stop a re-drive.
	Deadline time.Duration

	// Logf, when non-nil, receives one line per failed attempt.
	Logf func(format string, args ...any)
}

var stepBackoff = transport.Backoff{Initial: 20 * time.Millisecond, Max: time.Second}

// downloadPoll paces DownloadAll's polls of an aggregator that has not
// fused the round yet: a slow round costs a handful of RPCs, not thousands,
// while an about-to-finish one is picked up within milliseconds.
var downloadPoll = transport.Backoff{Initial: 2 * time.Millisecond, Max: 250 * time.Millisecond}

// redrive runs op until it succeeds, the step deadline expires, or it
// returns a verdict no retry can change: a round the fleet abandoned is
// skipped by the caller, a round that sealed without the party's upload
// is only downloaded (Round), an unverifiable aggregator is an adversary.
func (s *RoundStep) redrive(ctx context.Context, what string, op func(context.Context) error) error {
	if s.Deadline <= 0 {
		return op(ctx)
	}
	ctx, cancel := context.WithTimeout(ctx, s.Deadline)
	defer cancel()
	for i := 0; ; i++ {
		err := op(ctx)
		if err == nil || errors.Is(err, ErrRoundAbandoned) || errors.Is(err, ErrStragglerCut) || errors.Is(err, ErrVerificationFailed) {
			return err
		}
		if s.Logf != nil {
			s.Logf("%s failed (retrying): %v", what, err)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s: %w (last error: %v)", what, ctx.Err(), err)
		case <-s.Fleet.clk().After(stepBackoff.Delay(i)):
		}
	}
}

// Join enrols partyID, the one way every deployment does: Phase II against
// every aggregator (Fleet.VerifyAndRegisterAll) under the token keys the
// AP provisioned, then registration with the AP's key broker and the
// permutation key, which keys s.Shuffler.
func (s *RoundStep) Join(ctx context.Context, ap *APClient, partyID string) error {
	err := s.redrive(ctx, "phase II", func(ctx context.Context) error {
		tokenPubKey := func(aggID string) ([]byte, error) { return ap.TokenPubKey(ctx, aggID) }
		return s.Fleet.VerifyAndRegisterAll(ctx, partyID, tokenPubKey, attest.NewNonce, attest.VerifyChallenge)
	})
	if err != nil {
		return err
	}
	if err := ap.RegisterParty(ctx, partyID); err != nil {
		return fmt.Errorf("core: registering with the key broker: %w", err)
	}
	permKey, err := ap.PermKey(ctx, partyID)
	if err != nil {
		return fmt.Errorf("core: fetching the permutation key: %w", err)
	}
	s.Shuffler, err = NewShuffler(permKey)
	return err
}

// Upload transforms the party's update and uploads fragment j to aggregator
// j. The returned fragments are the party's own: hand them to Finish, which
// uses them as the quorum fallback and returns them to the tensor pool. On
// error they are already back in the pool.
func (s *RoundStep) Upload(ctx context.Context, round int, partyID string, roundID []byte, update tensor.Vector, weight float64) ([]tensor.Vector, error) {
	frags, err := Transform(s.Mapper, s.Shuffler, update, roundID, s.Shuffle)
	if err != nil {
		return nil, err
	}
	err = s.redrive(ctx, fmt.Sprintf("round %d upload", round), func(ctx context.Context) error {
		return s.Fleet.UploadAll(ctx, round, partyID, frags, weight)
	})
	if err != nil {
		putFragments(frags)
		return nil, err
	}
	return frags, nil
}

// Finish downloads the K fused fragments — polling until the fleet has
// fused, degrading an aggregator lost this round to the party's own
// fragment for its partition — and inverts the transformation. own is
// Upload's result, or nil for a party that sat the round out and only
// catches up on the model.
func (s *RoundStep) Finish(ctx context.Context, round int, partyID string, roundID []byte, own []tensor.Vector) (tensor.Vector, error) {
	// Only the upload-side fragments go back to the pool: merged may alias
	// them through the fallback, and pooling one buffer twice would hand it
	// out twice.
	defer putFragments(own)
	var merged []tensor.Vector
	err := s.redrive(ctx, fmt.Sprintf("round %d download", round), func(ctx context.Context) (err error) {
		merged, err = s.Fleet.DownloadAll(ctx, round, partyID, own)
		return err
	})
	if err != nil {
		return nil, err
	}
	return InverseTransform(s.Mapper, s.Shuffler, merged, roundID, s.Shuffle)
}

// Round is Upload then Finish, for a driver with nothing to do in between.
// A party whose upload came after the round sealed is a straggler the
// round was fused without: it still downloads the fused model.
func (s *RoundStep) Round(ctx context.Context, round int, partyID string, roundID []byte, update tensor.Vector, weight float64) (tensor.Vector, error) {
	own, err := s.Upload(ctx, round, partyID, roundID, update, weight)
	if err != nil && !errors.Is(err, ErrStragglerCut) {
		return nil, err
	}
	return s.Finish(ctx, round, partyID, roundID, own)
}

func putFragments(frags []tensor.Vector) {
	for _, f := range frags {
		tensor.PutVector(f)
	}
}

// Initiator drives inter-aggregator training synchronization from the
// aggregator designated initiator: it fuses the local node as soon as each
// round seals, and every follower then catches up on its own goroutine, so
// a slow or dead follower never stalls the healthy ones (parties degrade
// through their own aggregator quorum), while a follower that crashes and
// restarts is re-driven — not abandoned — until it has fused every round
// (fusion is idempotent on both sides, and the restarted follower recovers
// its uploads from its journal).
type Initiator struct {
	Node      *AggregatorNode
	Followers []*AggregatorClient
	// PeerTimeout bounds one follower's exchange for one round (0 = only
	// Run's ctx bounds it).
	PeerTimeout time.Duration
	// Clock paces the polls (nil = SystemClock).
	Clock Clock
	// Logf, when non-nil, receives progress and failure lines.
	Logf func(format string, args ...any)
}

const (
	syncPoll  = 20 * time.Millisecond  // seal polls, local-fuse retries
	syncRetry = 200 * time.Millisecond // after a failed follower exchange
)

// Run synchronizes rounds until ctx ends, then returns once every goroutine
// it started has exited. It resumes past the rounds a journal-recovered
// node already fused: evicted rounds would otherwise never seal and wedge
// the sync at round 1. Followers resume one round earlier: an initiator
// that crashed right after fusing that round locally may not have told
// them yet, and re-driving a fused round is a no-op.
func (in *Initiator) Run(ctx context.Context) {
	start := in.Node.LastAggregatedRound() + 1
	var latest atomic.Int64 // last round fused (or abandoned) locally
	latest.Store(int64(start - 1))

	var wg sync.WaitGroup
	defer wg.Wait()
	for _, f := range in.Followers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in.follow(ctx, f, max(start-1, 1), &latest)
		}()
	}

	for round, failures := start, 0; ; {
		err := in.Node.Aggregate(round)
		switch {
		case err == nil:
			latest.Store(int64(round))
			in.logf(0, "round %d fused locally; followers syncing", round)
			round, failures = round+1, 0
			continue
		case errors.Is(err, ErrRoundAbandoned):
			// Deadline passed below quorum: give up on this round and let
			// followers (whose own lifecycle reached the same verdict) and
			// parties (typed ErrRoundAbandoned) skip it.
			latest.Store(int64(round))
			in.logf(0, "round %d abandoned below quorum; skipping", round)
			round++
			continue
		case errors.Is(err, ErrRoundIncomplete):
			// Not sealed yet: poll again.
		default:
			failures++
			in.logf(failures, "round %d: local aggregate: %v (retrying)", round, err)
		}
		if !in.pace(ctx, syncPoll) {
			return
		}
	}
}

// follow keeps one follower fused up to the initiator's latest round.
func (in *Initiator) follow(ctx context.Context, f *AggregatorClient, next int, latest *atomic.Int64) {
	for failures := 0; ; {
		wait := syncPoll
		if int64(next) <= latest.Load() {
			callCtx, cancel := withTimeout(ctx, in.PeerTimeout)
			err := in.syncFollower(callCtx, f, next)
			cancel()
			if err == nil {
				next, failures = next+1, 0
				continue
			}
			failures++
			in.logf(failures, "round %d: follower %s: %v (retrying)", next, f.ID, err)
			wait = syncRetry
		}
		if !in.pace(ctx, wait) {
			return
		}
	}
}

// syncFollower asks the follower to fuse the round until it has sealed
// there; ctx bounds the whole exchange. A round the follower's own
// lifecycle abandoned is skipped, not re-driven.
func (in *Initiator) syncFollower(ctx context.Context, f *AggregatorClient, round int) error {
	for {
		err := f.Aggregate(ctx, round)
		if errors.Is(err, ErrRoundAbandoned) {
			return nil
		}
		if !errors.Is(err, ErrRoundIncomplete) {
			return err
		}
		if !in.pace(ctx, syncPoll) {
			return fmt.Errorf("waiting for the follower's round to seal: %w", ctx.Err())
		}
	}
}

// pace waits one interval on the clock seam; false means ctx ended first
// and the calling loop must exit.
func (in *Initiator) pace(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-orSystem(in.Clock).After(d):
		return true
	}
}

// logf is the one rate rule for the retry loops, which spin at syncPoll for
// as long as a fault lasts: of a failure streak it reports the first and
// every 50th. Progress lines pass streak 0 and always print.
func (in *Initiator) logf(streak int, format string, args ...any) {
	if in.Logf != nil && (streak <= 1 || streak%50 == 0) {
		in.Logf(format, args...)
	}
}
