package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"deta/internal/agg"
	"deta/internal/attest"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
)

// AggregatorNode is the aggregation service running inside one SEV CVM. It
// holds only fragmentary, shuffled views of model updates: it never learns
// the model architecture, the mapper, or the permutation key.
//
// With a Journal attached (RecoverAggregatorNode, or Session's StateDir),
// every state mutation is committed to the write-ahead log before it is
// acknowledged, so a crashed-and-restarted aggregator resumes the round
// exactly where it left off instead of stalling the federation.
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
	// walBuf is the reused encode scratch for fragment WAL records:
	// journal.Append copies the frame out synchronously, so the buffer is
	// free again when logFragmentDurable returns. Guarded by mu like
	// every caller; ephemeral, never journaled or recovered.
	walBuf []byte
	// compactEvery bounds the journal tail before a snapshot+truncate
	// compaction (0 = default).
	compactEvery int

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
	fragments  map[string]tensor.Vector
	weights    map[string]float64
	aggregated tensor.Vector

	// openedAt is when this node first saw the round (zero for rounds that
	// predate lifecycle configuration — restampLocked stamps them);
	// quorumAt is when the upload count first met the requirement. Both
	// are in-memory only: the WAL stays timestamp-free so replay is
	// bit-identical whenever it runs.
	openedAt time.Time
	quorumAt time.Time
}

// Aggregator-node errors.
var (
	ErrNotRegistered   = errors.New("core: party not registered with aggregator")
	ErrRoundIncomplete = errors.New("core: round is missing uploads")
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
	if a.parties[partyID] {
		a.lastSeen[partyID] = a.nowLocked()
		return
	}
	if a.evicted[partyID] {
		a.rejoinLocked(partyID)
	} else {
		// Best-effort journaling: a lost register record is self-healing
		// (uploads imply registration on replay, and parties re-register on
		// reconnect), so registration does not fail on journal errors.
		a.logEvent(recRegister, walEvent{Party: partyID})
		a.parties[partyID] = true
	}
	a.lastSeen[partyID] = a.nowLocked()
	a.maybeCompactLocked()
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
// retry; only a *conflicting* re-upload returns ErrDuplicateUpload. The
// fragment is journaled (fsynced) before the upload is acknowledged.
//
// The node clones frag before storing it, so the caller may keep using its
// buffer. Callers that hand over ownership should use UploadOwned.
//
//perf:hotpath
func (a *AggregatorNode) Upload(round int, partyID string, frag tensor.Vector, weight float64) error {
	return a.upload(round, partyID, frag, weight, false)
}

// UploadOwned is Upload for callers relinquishing frag — the RPC handler,
// whose fragment was decoded into a buffer that exists only for this
// request. The node stores frag without the defensive clone; the caller
// must not touch it afterwards.
//
//perf:hotpath
func (a *AggregatorNode) UploadOwned(round int, partyID string, frag tensor.Vector, weight float64) error {
	return a.upload(round, partyID, frag, weight, true)
}

// upload is the steady-state ingest path, hence //perf:hotpath; its
// remaining acknowledged allocations (round-state map writes, the
// defensive Clone, the durability helpers) are tracked in
// lint-baseline.json rather than ignored in place — they are burn-down
// candidates, not sanctioned forever.
//
//perf:hotpath
func (a *AggregatorNode) upload(round int, partyID string, frag tensor.Vector, weight float64, owned bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.nowLocked()
	if a.evicted[partyID] {
		// A returning party's first upload readmits it — the same
		// journaled transition a heartbeat or re-registration takes.
		a.rejoinLocked(partyID)
	}
	if !a.parties[partyID] {
		return fmt.Errorf("%w: %q", ErrNotRegistered, partyID)
	}
	a.lastSeen[partyID] = now
	rs, ok := a.rounds[round]
	if ok {
		if prev, dup := rs.fragments[partyID]; dup {
			// Identical retries stay idempotent even after the round seals, so
			// a party that hit an ambiguous failure pre-seal can still confirm.
			if fragEqual(prev, frag) && rs.weights[partyID] == weight {
				return nil // identical retry: already committed
			}
			return fmt.Errorf("%w %d from %q", ErrDuplicateUpload, round, partyID)
		}
		if a.lifecycleOnLocked(rs) {
			switch ph := a.phaseLocked(rs, now); ph {
			case PhaseAbandoned:
				return fmt.Errorf("%w: round %d", ErrRoundAbandoned, round)
			case PhaseSealed, PhaseFused:
				return fmt.Errorf("%w: round %d is %s", ErrStragglerCut, round, ph)
			}
		}
	}
	// WAL before ack — and before any durable mutation: the round is
	// created only after its first fragment is safely journaled, so a
	// failed append leaves no phantom round to roll back. A brand-new
	// round needs no duplicate or lifecycle check: its maps are empty and
	// a round opening right now is by definition in PhaseOpen.
	if err := a.logFragmentDurable(recUpload, partyID, round, frag, weight); err != nil {
		return fmt.Errorf("core: aggregator %s journaling upload: %w", a.ID, err)
	}
	if !ok {
		rs = newRoundState()
		rs.openedAt = now
		a.rounds[round] = rs
	}
	if !owned {
		// Defensive copy into pooled storage: GetVector reuses retired
		// fragment buffers, where Clone allocated a fresh slab per upload.
		buf := tensor.GetVector(len(frag))
		copy(buf, frag)
		frag = buf
	}
	rs.fragments[partyID] = frag
	rs.weights[partyID] = weight
	a.refreshQuorumLocked(rs, now)
	a.maybeCompactLocked()
	return nil
}

// SetQuorum configures partial participation: rounds may aggregate once n
// parties have uploaded (n <= 0 restores the all-parties default).
func (a *AggregatorNode) SetQuorum(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.quorum == n {
		return
	}
	a.logEvent(recQuorum, walEvent{N: n})
	a.quorum = n
}

// SetRetention bounds memory over long runs: once set to n > 0, rounds
// older than (latest aggregated round - n) are evicted after each fusion.
// The journal (when attached) remains the durable copy of evicted rounds;
// n <= 0 disables eviction.
func (a *AggregatorNode) SetRetention(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.retention == n {
		return
	}
	a.logEvent(recRetention, walEvent{N: n})
	a.retention = n
	a.evictLocked(a.lastAggregated)
}

// SetCompactEvery tunes how many journal records accumulate before a
// snapshot+truncate compaction (default 1024; no-op without a journal).
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

// Complete reports whether the round is ready to fuse: with a lifecycle
// configured (SetLifecycle), that means the round has sealed — quorum met
// and the grace window (or deadline, or full participation) reached;
// without one, simply that enough parties have uploaded (all registered
// parties, or the configured quorum).
func (a *AggregatorNode) Complete(round int) bool {
	done, _ := a.RoundStatus(round)
	return done
}

// Aggregate fuses the round's fragments with the node's algorithm. Called
// by the initiator's sync protocol once all parties have uploaded.
// Aggregating an already-fused round is a no-op, so an initiator that
// restarted mid-sync can safely re-drive it. The fused vector is journaled
// before Aggregate returns, so parties can still download it from a
// recovered aggregator.
func (a *AggregatorNode) Aggregate(round int) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	rs, ok := a.rounds[round]
	if ok && rs.aggregated != nil {
		return nil // idempotent re-sync after an initiator or node restart
	}
	// Aggregate fuses as soon as the quorum *count* is met — it does not
	// wait out the grace window (Complete/RoundStatus is where grace
	// gates): the explicit call is the initiator's decision to cut
	// stragglers now, and Session's coordinator sends it as soon as every
	// upload has been acknowledged.
	if ok && a.phaseLocked(rs, a.nowLocked()) == PhaseAbandoned {
		return fmt.Errorf("%w: round %d has %d/%d uploads", ErrRoundAbandoned, round, len(rs.fragments), a.required())
	}
	if !ok || len(rs.fragments) < a.required() {
		return fmt.Errorf("%w: round %d has %d/%d uploads", ErrRoundIncomplete, round, uploadCount(rs), a.required())
	}
	// Deterministic party order: sort IDs.
	ids := make([]string, 0, len(rs.fragments))
	for id := range rs.fragments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	updates := make([]tensor.Vector, len(ids))
	weights := make([]float64, len(ids))
	for i, id := range ids {
		updates[i] = rs.fragments[id]
		weights[i] = rs.weights[id]
	}
	fused, err := a.Algorithm.Aggregate(updates, weights)
	if err != nil {
		return fmt.Errorf("core: aggregator %s round %d: %w", a.ID, round, err)
	}
	// Journal the *result*, not just the trigger: stateful algorithms
	// (e.g. Paillier fusion) cannot be re-run deterministically on
	// replay, and parties must be able to re-download after a crash.
	if err := a.logFragmentDurable(recAggregate, "", round, fused, 0); err != nil {
		return fmt.Errorf("core: aggregator %s journaling round %d: %w", a.ID, round, err)
	}
	a.applyAggregated(round, fused)
	a.maybeCompactLocked()
	return nil
}

func uploadCount(rs *roundState) int {
	if rs == nil {
		return 0
	}
	return len(rs.fragments)
}

// Download returns the aggregated fragment for a round, cloned so the
// caller may keep and modify it.
func (a *AggregatorNode) Download(round int, partyID string) (tensor.Vector, error) {
	frag, err := a.fused(round, partyID)
	if err != nil {
		return nil, err
	}
	return frag.Clone(), nil
}

// fused is Download without the clone, for the RPC handler, which only
// encodes the vector: the node's own fused vector, read-only. Nothing
// mutates or pools it after Aggregate installs it (eviction just drops the
// reference), so it may be read without the lock.
func (a *AggregatorNode) fused(round int, partyID string) (tensor.Vector, error) {
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
	// Advisory fetch-served record (no fsync: its loss is harmless); it
	// lets operators audit which rounds were actually delivered.
	a.logEventAdvisory(recFetch, walEvent{Party: partyID, Round: round})
	return rs.aggregated, nil
}

// DropRound frees a completed round's state.
func (a *AggregatorNode) DropRound(round int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.rounds[round]; !ok {
		return
	}
	a.logEvent(recDrop, walEvent{Round: round})
	delete(a.rounds, round)
	a.maybeCompactLocked()
}

// evictLocked applies the retention policy after round `latest` fused.
// Pure function of (rounds, retention, latest), so journal replay — which
// re-runs it from the recAggregate records — reproduces the same bounded
// map without eviction records of its own. Callers must hold a.mu.
func (a *AggregatorNode) evictLocked(latest int) {
	if a.retention <= 0 {
		return
	}
	for r := range a.rounds {
		if r <= latest-a.retention {
			delete(a.rounds, r)
		}
	}
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
	out := make(map[string]tensor.Vector, len(rs.fragments))
	for id, f := range rs.fragments {
		out[id] = f.Clone()
	}
	return out
}

func newRoundState() *roundState {
	return &roundState{
		fragments: make(map[string]tensor.Vector),
		weights:   make(map[string]float64),
	}
}

// fragEqual reports exact (bitwise, per-coordinate) equality — the test
// for an idempotent re-upload.
func fragEqual(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
