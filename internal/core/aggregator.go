package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// AggregatorNode is the aggregation service running inside one SEV CVM. It
// holds only fragmentary, shuffled views of model updates: it never learns
// the model architecture, the mapper, or the permutation key.
//
// With a Journal attached (RecoverAggregatorNode), every state mutation is
// committed to the write-ahead log before it is acknowledged, so a
// crashed-and-restarted aggregator resumes the round exactly where it left
// off instead of stalling the federation. Durable state changes only
// through apply, fed by commitLocked live and by the journal on replay
// (recover.go).
type AggregatorNode struct {
	ID        string
	Algorithm agg.Algorithm

	cvm   *sev.CVM
	token *attest.Token

	mu      sync.Mutex
	parties map[string]bool
	rounds  map[int]*roundState

	// quorum, when positive, lets a round aggregate once that many
	// parties have uploaded instead of requiring all registered parties —
	// the asynchronous-training tolerance the paper contrasts with SMC
	// protocols (§8.2): parties with competing workloads or slow hardware
	// may miss rounds without stalling the federation.
	quorum int

	// retention, when positive, evicts aggregated rounds older than
	// (latest aggregated - retention) from memory; the journal remains
	// the durable copy, so the rounds map stays bounded over long runs.
	retention int

	// lastAggregated is the highest round this node has fused; it
	// survives recovery so a restarted initiator resumes sync at the
	// right round instead of round 1.
	lastAggregated int

	// journal, when non-nil, is the durable round-state log. Mutations
	// append to it (fsync-on-commit) before acknowledging.
	journal *journal.Journal
	// walBuf is the reused encode scratch for WAL records: journal.Append
	// copies the frame out synchronously, so the buffer is free again when
	// appendLocked returns. Guarded by mu like every caller; ephemeral,
	// never journaled or recovered.
	walBuf []byte
	// compactEvery bounds the journal tail before a compaction rewrites
	// the log as the node's state (0 = default).
	compactEvery int
	// compactRetryAt, after a failed compaction, is the tail length at
	// which the next attempt is due (0 = none failed since the last
	// success). Ephemeral, like walBuf.
	compactRetryAt int

	// clock is the injected time source for the round lifecycle and
	// liveness tracker (nil = SystemClock); see lifecycle.go.
	clock Clock
	// deadline/grace drive the per-round state machine (SetLifecycle);
	// deadline <= 0 disables it.
	deadline time.Duration
	grace    time.Duration
	// suspectAfter/evictAfter are the liveness thresholds (SetLiveness);
	// evictAfter <= 0 disables eviction.
	suspectAfter time.Duration
	evictAfter   time.Duration
	// lastSeen records each registered party's latest liveness signal
	// (upload, register, heartbeat). Ephemeral: never journaled, reset to
	// the recovery instant after a restart.
	lastSeen map[string]time.Time
	// evicted marks parties removed for silence (recEvict) and not yet
	// readmitted (recRejoin); it survives recovery via the journal.
	evicted map[string]bool
}

type roundState struct {
	// uploads holds each party's fragment in a pooled buffer the node
	// owns; apply returns them to the pool when retention evicts the round.
	uploads map[string]contribution // by party
	// aggregated is the fused round as its recAggregate payload: the
	// fragment encoding of the fused vector, which the WAL, compaction and
	// every download body share. It is immutable once apply installs it,
	// and never pooled: a download writes it out without the lock, so
	// eviction only drops the reference.
	aggregated []byte

	// openedAt is when this node first saw the round (zero for rounds that
	// predate lifecycle configuration — restampLocked stamps them);
	// quorumAt is when the upload count first met the requirement. Both
	// are in-memory only: the WAL stays timestamp-free so replay is
	// bit-identical whenever it runs.
	openedAt time.Time
	quorumAt time.Time
}

// contribution is one party's accepted upload for a round. During
// recovery only, a replayed upload is unread: its values are still in the
// journal record at offset at, and frag is nil until RecoverAggregatorNode
// reads them back. A node that serves holds no unread contribution.
type contribution struct {
	frag   tensor.Vector
	weight float64
	unread bool
	at     int64
}

// roundLocked returns the round's state, creating it — with room for an
// upload from every registered party — if the node has none. Only apply
// calls it. Callers must hold a.mu.
func (a *AggregatorNode) roundLocked(round int) *roundState {
	rs, ok := a.rounds[round]
	if !ok {
		rs = &roundState{uploads: make(map[string]contribution, len(a.parties))}
		a.rounds[round] = rs
	}
	return rs
}

// Aggregator-node errors.
var (
	ErrNotRegistered   = errors.New("core: party not registered with aggregator")
	ErrRoundIncomplete = errors.New("core: round is missing uploads or not sealed yet")
	ErrNotAggregated   = errors.New("core: round not aggregated yet")
	ErrDuplicateUpload = errors.New("core: conflicting duplicate upload for round")
)

// NewAggregatorNode launches the aggregation service inside the given CVM:
// it reads the launch secret (the AP-provisioned ECDSA token) from the
// CVM's encrypted memory. The CVM must already be provisioned and running.
// The node keeps all round state in memory; use RecoverAggregatorNode to
// attach a durable journal and survive restarts.
func NewAggregatorNode(id string, algorithm agg.Algorithm, cvm *sev.CVM) (*AggregatorNode, error) {
	secret, err := cvm.GuestReadSecret()
	if err != nil {
		return nil, fmt.Errorf("core: aggregator %s reading launch secret: %w", id, err)
	}
	token, err := attest.LoadToken(secret)
	if err != nil {
		return nil, fmt.Errorf("core: aggregator %s: %w", id, err)
	}
	return &AggregatorNode{
		ID:        id,
		Algorithm: algorithm,
		cvm:       cvm,
		token:     token,
		parties:   make(map[string]bool),
		rounds:    make(map[int]*roundState),
		lastSeen:  make(map[string]time.Time),
		evicted:   make(map[string]bool),
	}, nil
}

// SignChallenge answers a party's Phase II challenge with the provisioned
// token.
func (a *AggregatorNode) SignChallenge(nonce []byte) ([]byte, error) {
	return a.token.SignChallenge(nonce)
}

// Register admits a party to the training. Registering an already-admitted
// party is a no-op, so parties may safely re-register after reconnecting
// to a restarted aggregator. A previously evicted party re-registering is
// readmitted (journaled as recRejoin).
func (a *AggregatorNode) Register(partyID string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.parties[partyID] {
		typ := recRegister
		if a.evicted[partyID] {
			typ = recRejoin
		}
		// Best-effort journaling: a lost register record is self-healing
		// (uploads imply registration on replay, and parties re-register on
		// reconnect), so commitLocked admits the party even on a journal
		// error.
		_ = a.commitLocked(record{typ: typ, party: partyID})
	}
	a.lastSeen[partyID] = a.nowLocked()
}

// NumParties returns the registered-party count.
func (a *AggregatorNode) NumParties() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.parties)
}

// RoundsHeld returns how many rounds the node currently holds in memory
// (bounded by SetRetention over long runs).
func (a *AggregatorNode) RoundsHeld() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.rounds)
}

// LastAggregatedRound returns the highest round this node has fused (0 if
// none); it survives crash recovery, so a restarted initiator can resume
// round synchronization past already-completed rounds.
func (a *AggregatorNode) LastAggregatedRound() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastAggregated
}

// Upload receives one party's transformed fragment for a round, weighted by
// the party's local dataset size. Uploads are idempotent: re-sending the
// identical (fragment, weight) for the same (party, round) succeeds
// silently, so a party that hit an ambiguous network failure can safely
// retry; only a *conflicting* re-upload returns ErrDuplicateUpload. Any
// other upload into a fused round returns ErrStragglerCut, lifecycle armed
// or not. The fragment is journaled (fsynced) before the upload is
// acknowledged.
//
// The node clones frag before storing it, so the caller may keep using its
// buffer. Callers that hand over ownership should use UploadOwned.
//
//perf:hotpath
func (a *AggregatorNode) Upload(round int, partyID string, frag tensor.Vector, weight float64) error {
	return a.upload(record{typ: recUpload, n: round, party: partyID, frag: frag, weight: weight}, false)
}

// UploadOwned is Upload for callers relinquishing frag, decoded into a
// buffer that exists only for this request. The node stores frag without
// the defensive clone and, stored or not, clears it and hands it back to
// the tensor pool once done with it; the caller must not touch it
// afterwards.
//
//perf:hotpath
func (a *AggregatorNode) UploadOwned(round int, partyID string, frag tensor.Vector, weight float64) error {
	return a.upload(record{typ: recUpload, n: round, party: partyID, frag: frag, weight: weight}, true)
}

// upload is the steady-state ingest path, hence //perf:hotpath: it admits
// rec, a recUpload, taking ownership of rec.frag when owned. The RPC
// handler also sets rec.wire to the request body, which is then journaled
// as it is. The node owns the fragment from here on, the defensive copy
// included: a stored fragment goes back to the pool when retention evicts
// its round (apply), and one the node does not store — an identical retry,
// a refused upload, a failed journal append — goes back here. The
// allocations left on the path are acknowledged in place: the liveness
// stamp in uploadLocked and, in commitLocked and appendLocked, the round
// map and the WAL scratch buffer.
//
//perf:hotpath
func (a *AggregatorNode) upload(rec record, owned bool) error {
	if !owned {
		// Defensive copy into pooled storage: GetVector reuses retired
		// fragment buffers, where Clone allocated a fresh slab per upload.
		buf := tensor.GetVector(len(rec.frag))
		copy(buf, rec.frag)
		rec.frag = buf
	}
	a.mu.Lock()
	stored, err := a.uploadLocked(rec)
	a.mu.Unlock()
	if !stored {
		release(rec.frag)
	}
	return err
}

// release clears a party's fragment the node lets go of, then returns it
// to the pool, so that a breached aggregator cannot read a round it no
// longer holds out of a later GetVector. Only the aggregator's paths
// clear: the party side recycles its own data and puts it back as is.
//
//perf:hotpath
func release(frag tensor.Vector) {
	clear(frag)
	tensor.PutVector(frag)
}

// uploadLocked admits rec and reports whether the round now holds
// rec.frag. It is stored only when the upload commits; an identical retry
// is acknowledged with nil but keeps the copy already held. Callers must
// hold a.mu.
//
//perf:hotpath
func (a *AggregatorNode) uploadLocked(rec record) (stored bool, err error) {
	round, partyID := rec.n, rec.party
	now := a.nowLocked()
	if a.evicted[partyID] {
		// A returning party's first upload readmits it — the same
		// journaled transition a heartbeat or re-registration takes.
		_ = a.commitLocked(record{typ: recRejoin, party: partyID})
	}
	if !a.parties[partyID] {
		return false, fmt.Errorf("%w: %q", ErrNotRegistered, partyID)
	}
	//lint:ignore allocfree one entry per registered party: past its first signal this overwrites a key that exists
	a.lastSeen[partyID] = now
	rs, ok := a.rounds[round]
	if ok {
		if prev, dup := rs.uploads[partyID]; dup {
			// Identical retries stay idempotent even after the round seals, so
			// a party that hit an ambiguous failure pre-seal can still confirm.
			if slices.Equal(prev.frag, rec.frag) && prev.weight == rec.weight {
				return false, nil // identical retry: already committed
			}
			return false, fmt.Errorf("%w %d from %q", ErrDuplicateUpload, round, partyID)
		}
		if rs.aggregated != nil {
			// Lifecycle armed or not: the fused model cannot take this
			// upload in, so acknowledging it would lose it silently.
			return false, fmt.Errorf("%w: round %d is %s", ErrStragglerCut, round, PhaseFused)
		}
		if a.lifecycleOnLocked(rs) {
			switch ph := a.phaseLocked(rs, now); ph {
			case PhaseAbandoned:
				return false, fmt.Errorf("%w: round %d", ErrRoundAbandoned, round)
			case PhaseSealed:
				return false, fmt.Errorf("%w: round %d is %s", ErrStragglerCut, round, ph)
			}
		}
	}
	// WAL before ack: a failed append stores nothing, so no phantom round
	// is left to roll back. A brand-new round needs no duplicate or
	// lifecycle check: it has no uploads, and a round opening right now is
	// by definition in PhaseOpen.
	if err := a.commitLocked(rec); err != nil {
		return false, fmt.Errorf("core: aggregator %s journaling upload: %w", a.ID, err)
	}
	if !ok {
		rs = a.rounds[round]
		rs.openedAt = now
	}
	a.refreshQuorumLocked(rs, now)
	return true, nil
}

// SetQuorum configures partial participation: rounds may aggregate once n
// parties have uploaded (n <= 0 restores the all-parties default).
func (a *AggregatorNode) SetQuorum(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n = max(n, 0) // every n <= 0 means the same; 0 is the one journaled
	if a.quorum != n {
		_ = a.commitLocked(record{typ: recQuorum, n: n})
	}
}

// SetRetention bounds memory over long runs: once set to n > 0, rounds
// older than (latest aggregated round - n) are evicted after each fusion.
// The journal (when attached) remains the durable copy of evicted rounds;
// n <= 0 disables eviction.
func (a *AggregatorNode) SetRetention(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n = max(n, 0) // every n <= 0 means the same; 0 is the one journaled
	if a.retention != n {
		_ = a.commitLocked(record{typ: recRetention, n: n})
	}
}

// SetCompactEvery tunes how many journal records accumulate before the
// next fused round compacts the journal — rewrites it as the node's
// current state (default 512; no-op without a journal).
func (a *AggregatorNode) SetCompactEvery(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.compactEvery = n
}

// required returns the upload count a round needs before aggregation.
// Callers must hold a.mu.
func (a *AggregatorNode) required() int {
	if a.quorum > 0 && a.quorum < len(a.parties) {
		return a.quorum
	}
	return len(a.parties)
}

// Aggregate is the one call that decides and fuses a round, the poll of
// the initiator's sync loop (round.go). It reaps liveness, refreshes the
// quorum instant and evaluates the round's phase, then acts on it:
//   - fused: nil, so an initiator that restarted mid-sync can safely
//     re-drive it;
//   - abandoned: ErrRoundAbandoned, the round will never fuse;
//   - open or grace: ErrRoundIncomplete, not sealed yet — poll again;
//   - sealed: fuse with the node's algorithm.
//
// The fused vector is journaled before Aggregate returns, so parties can
// still download it from a recovered aggregator. A fusion is where a round
// ends, so it is also where the journal is compacted once its tail has
// grown past the threshold.
func (a *AggregatorNode) Aggregate(round int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.nowLocked()
	a.reapLocked(now)
	rs := a.rounds[round]
	a.refreshQuorumLocked(rs, now)
	switch ph := a.phaseLocked(rs, now); ph {
	case PhaseFused:
		return nil
	case PhaseAbandoned:
		return fmt.Errorf("%w: round %d has %d/%d uploads", ErrRoundAbandoned, round, len(rs.uploads), a.required())
	case PhaseOpen, PhaseGrace:
		return fmt.Errorf("%w: round %d is %s with %d/%d uploads", ErrRoundIncomplete, round, ph, uploadCount(rs), a.required())
	}
	// Deterministic party order: sort IDs.
	ids := sortedKeys(rs.uploads)
	updates := make([]tensor.Vector, len(ids))
	weights := make([]float64, len(ids))
	for i, id := range ids {
		updates[i] = rs.uploads[id].frag
		weights[i] = rs.uploads[id].weight
	}
	fused, err := a.Algorithm.Aggregate(updates, weights)
	if err != nil {
		return fmt.Errorf("core: aggregator %s round %d: %w", a.ID, round, err)
	}
	// Encode the fused vector once, into an exact-size buffer the node
	// owns: it is the WAL record, what compaction rewrites and every
	// download's body, so it is never pooled. The vector itself is left to
	// the collector too: a kernel may return an alias of one of its
	// inputs, the round's pooled uploads, which stay held until retention
	// evicts the round and only then go back to the pool.
	wire, err := transport.AppendFragment(nil, &transport.Fragment{Round: round, Values: fused})
	if err != nil {
		return fmt.Errorf("core: aggregator %s round %d: %w", a.ID, round, err)
	}
	// Journal the *result*, not just the trigger: stateful algorithms
	// (e.g. Paillier fusion) cannot be re-run deterministically on
	// replay, and parties must be able to re-download after a crash.
	if err := a.commitLocked(record{typ: recAggregate, n: round, wire: wire}); err != nil {
		return fmt.Errorf("core: aggregator %s journaling round %d: %w", a.ID, round, err)
	}
	a.maybeCompactLocked()
	return nil
}

func uploadCount(rs *roundState) int {
	if rs == nil {
		return 0
	}
	return len(rs.uploads)
}

// Download returns the aggregated fragment for a round, decoded into a
// fresh vector the caller may keep and modify.
func (a *AggregatorNode) Download(round int, partyID string) (tensor.Vector, error) {
	wire, err := a.fused(round, partyID)
	if err != nil {
		return nil, err
	}
	var f transport.Fragment
	if err := transport.DecodeFragment(wire, &f); err != nil {
		return nil, fmt.Errorf("core: aggregator %s round %d: %w", a.ID, round, err)
	}
	return f.Values, nil
}

// fused returns the round's aggregated bytes, the RPC handler's response
// body as they are. Nothing mutates or pools them after Aggregate installs
// them (eviction just drops the reference), so they may be read without
// the lock. A download changes no durable state and writes nothing to the
// journal.
func (a *AggregatorNode) fused(round int, partyID string) ([]byte, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.parties[partyID] {
		return nil, fmt.Errorf("%w: %q", ErrNotRegistered, partyID)
	}
	rs, ok := a.rounds[round]
	if !ok || rs.aggregated == nil {
		// Distinguish "not yet" from "never": pollers stop waiting on an
		// abandoned round instead of burning their whole deadline.
		if ok && a.phaseLocked(rs, a.nowLocked()) == PhaseAbandoned {
			return nil, fmt.Errorf("%w: round %d", ErrRoundAbandoned, round)
		}
		return nil, fmt.Errorf("%w: round %d", ErrNotAggregated, round)
	}
	return rs.aggregated, nil
}

// LeakRoundFragments models an aggregator breach for the security analysis
// (§6): it exposes everything this aggregator holds for a round — the
// per-party fragments exactly as uploaded. A real deployment has no such
// API; the attack experiments call it to play the worst-case adversary.
func (a *AggregatorNode) LeakRoundFragments(round int) map[string]tensor.Vector {
	a.mu.Lock()
	defer a.mu.Unlock()
	rs, ok := a.rounds[round]
	if !ok {
		return nil
	}
	out := make(map[string]tensor.Vector, len(rs.uploads))
	for id, u := range rs.uploads {
		out[id] = u.frag.Clone()
	}
	return out
}
