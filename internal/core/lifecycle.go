package core

// Round lifecycle and party liveness for AggregatorNode.
//
// Each round moves through open → (quorum-reached) grace → sealed → fused,
// or to abandoned if its deadline passes below quorum. The phase is a pure
// function of the round's recorded timestamps (openedAt, quorumAt), the
// lifecycle configuration, and the injected Clock — evaluated lazily on
// every query rather than driven by timers, so it is deterministic under a
// FakeClock and needs no goroutines or journaled timestamps. WAL records
// carry no wall-clock times at all: a recovered round is re-stamped with a
// fresh deadline at recovery (restampLocked), which keeps replay
// bit-identical regardless of when it runs.
//
// Liveness is layered on top: every upload, registration, and heartbeat
// refreshes a party's lastSeen. A party silent past suspectAfter is
// *suspect* — a derived, ephemeral state that is never journaled. A party
// silent past evictAfter is *evicted*: an explicit membership decision
// journaled as recEvict before the change takes effect, so churn survives
// crash-recovery. A heartbeat, upload, or registration from an evicted
// party readmits it, journaled as recRejoin. An aggregator killed between
// suspect and evict therefore replays to exactly the membership it would
// have reached uncrashed: no record was written, so nothing changed.

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// RoundPhase is one round's position in the lifecycle state machine.
type RoundPhase int

const (
	// PhaseOpen: accepting uploads, quorum not yet reached.
	PhaseOpen RoundPhase = iota
	// PhaseGrace: quorum reached; stragglers are still accepted until the
	// grace window (or the round deadline, whichever is earlier) expires.
	PhaseGrace
	// PhaseSealed: ready to fuse; straggler uploads are cut.
	PhaseSealed
	// PhaseFused: the round has an aggregated vector.
	PhaseFused
	// PhaseAbandoned: the deadline passed below quorum; the round will
	// never fuse.
	PhaseAbandoned
)

func (p RoundPhase) String() string {
	switch p {
	case PhaseOpen:
		return "open"
	case PhaseGrace:
		return "grace"
	case PhaseSealed:
		return "sealed"
	case PhaseFused:
		return "fused"
	case PhaseAbandoned:
		return "abandoned"
	}
	return fmt.Sprintf("RoundPhase(%d)", int(p))
}

// Lifecycle errors; both cross the RPC boundary as status codes (net.go).
var (
	ErrRoundAbandoned = errors.New("core: round abandoned below quorum at deadline")
	ErrStragglerCut   = errors.New("core: round sealed; straggler upload cut")
)

// SetClock injects the node's time source (default SystemClock) and stamps
// any recovered-but-unstamped rounds and parties with the new clock's now.
// Call it right after recovery, before serving.
func (a *AggregatorNode) SetClock(c Clock) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.clock = c
	a.restampLocked(a.nowLocked())
}

// nowLocked reads the injected clock (SystemClock when none). Callers must
// hold a.mu.
func (a *AggregatorNode) nowLocked() time.Time {
	if a.clock == nil {
		return SystemClock.Now()
	}
	return a.clock.Now()
}

// SetLifecycle configures the per-round deadline and the post-quorum grace
// window. A round seals (stops accepting stragglers) at
// min(openedAt+deadline, quorumAt+grace), or immediately once every
// registered party has uploaded; a round still below quorum at
// openedAt+deadline is abandoned. deadline <= 0 disables the state machine
// and restores pure count-based completion. Lifecycle knobs are boot-time
// configuration re-applied from daemon flags, not journaled: deadlines are
// relative to a recovery-time epoch, so persisting them would be
// meaningless after a crash.
func (a *AggregatorNode) SetLifecycle(deadline, grace time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if grace < 0 {
		grace = 0
	}
	a.deadline = deadline
	a.grace = grace
	a.restampLocked(a.nowLocked())
}

// SetLiveness configures the liveness thresholds: a party silent for
// suspectAfter is reported by Suspects (ephemeral), and one silent for
// evictAfter is evicted from membership (journaled as recEvict).
// evictAfter <= 0 disables eviction. Like SetLifecycle, not journaled.
func (a *AggregatorNode) SetLiveness(suspectAfter, evictAfter time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.suspectAfter = suspectAfter
	a.evictAfter = evictAfter
	a.restampLocked(a.nowLocked())
}

// restampLocked gives recovered (or pre-lifecycle) state a fresh epoch:
// rounds without an openedAt get one now, and parties without a liveness
// signal are treated as seen now. Callers must hold a.mu.
func (a *AggregatorNode) restampLocked(now time.Time) {
	for _, rs := range a.rounds {
		if rs.aggregated == nil && rs.openedAt.IsZero() {
			rs.openedAt = now
		}
	}
	for p := range a.parties {
		if _, ok := a.lastSeen[p]; !ok {
			a.lastSeen[p] = now
		}
	}
}

// phaseLocked evaluates the lifecycle state machine for one round at the
// given instant. With the state machine disabled (no deadline, or a round
// that predates lifecycle configuration), it degrades to the legacy
// count-based rule: sealed iff enough uploads arrived. Callers must hold
// a.mu.
func (a *AggregatorNode) phaseLocked(rs *roundState, now time.Time) RoundPhase {
	if rs == nil {
		return PhaseOpen
	}
	if rs.aggregated != nil {
		return PhaseFused
	}
	if a.deadline <= 0 || rs.openedAt.IsZero() {
		if len(rs.uploads) >= a.required() {
			return PhaseSealed
		}
		return PhaseOpen
	}
	deadline := rs.openedAt.Add(a.deadline)
	if rs.quorumAt.IsZero() {
		if !now.Before(deadline) {
			return PhaseAbandoned
		}
		return PhaseOpen
	}
	if len(rs.uploads) >= len(a.parties) {
		return PhaseSealed // nobody left to wait for
	}
	seal := deadline
	if g := rs.quorumAt.Add(a.grace); g.Before(seal) {
		seal = g
	}
	if !now.Before(seal) {
		return PhaseSealed
	}
	return PhaseGrace
}

// lifecycleOnLocked reports whether the time-driven state machine governs
// this round (vs. the legacy count-based rule). Callers must hold a.mu.
func (a *AggregatorNode) lifecycleOnLocked(rs *roundState) bool {
	return a.deadline > 0 && rs != nil && !rs.openedAt.IsZero()
}

// refreshQuorumLocked records the quorum-reached instant the first time a
// round's upload count meets the requirement. Edge-triggered: evictions
// that shrink the denominator also call this for in-flight rounds, so a
// round can reach quorum by membership shrinking as well as by uploads
// arriving. Callers must hold a.mu.
func (a *AggregatorNode) refreshQuorumLocked(rs *roundState, now time.Time) {
	if rs == nil || !rs.quorumAt.IsZero() || len(rs.uploads) == 0 {
		return
	}
	if len(rs.uploads) >= a.required() {
		rs.quorumAt = now
	}
}

// Phase reports a round's current lifecycle phase.
func (a *AggregatorNode) Phase(round int) RoundPhase {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.phaseLocked(a.rounds[round], a.nowLocked())
}

// Heartbeat records a liveness signal from a party. A heartbeat from an
// evicted party readmits it (journaled as recRejoin) and reports
// rejoined=true; one from a never-registered party is rejected.
func (a *AggregatorNode) Heartbeat(partyID string) (rejoined bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.nowLocked()
	if a.evicted[partyID] {
		_ = a.commitLocked(record{typ: recRejoin, party: partyID})
		rejoined = true
	} else if !a.parties[partyID] {
		return false, fmt.Errorf("%w: %q", ErrNotRegistered, partyID)
	}
	a.lastSeen[partyID] = now
	a.reapLocked(now)
	return rejoined, nil
}

// Tick advances liveness reaping against the injected clock and returns
// the parties evicted by this tick (sorted). The daemon calls it from a
// timer; fake-clock tests call it after Advance.
func (a *AggregatorNode) Tick() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reapLocked(a.nowLocked())
}

// reapLocked evicts every registered party whose last liveness signal is
// at least evictAfter old, returning the evicted IDs. Candidates are
// sorted before journaling so the WAL content is deterministic for a given
// state — map iteration order must never leak to disk. Callers must hold
// a.mu.
func (a *AggregatorNode) reapLocked(now time.Time) []string {
	if a.evictAfter <= 0 {
		return nil
	}
	var stale []string
	for p := range a.parties {
		if seen, ok := a.lastSeen[p]; ok && now.Sub(seen) >= a.evictAfter {
			stale = append(stale, p)
		}
	}
	if len(stale) == 0 {
		return nil
	}
	sort.Strings(stale)
	for _, p := range stale {
		_ = a.commitLocked(record{typ: recEvict, party: p})
	}
	// Evictions shrink the quorum denominator: an in-flight round may have
	// just reached quorum by membership change rather than a new upload.
	for _, rs := range a.rounds {
		if rs.aggregated == nil {
			a.refreshQuorumLocked(rs, now)
		}
	}
	return stale
}

// Suspects lists registered parties whose last signal is at least
// suspectAfter old but that are not yet evicted (sorted). Suspicion is
// derived state — never journaled — so a crash while a party is merely
// suspect replays to the same membership as no crash at all.
func (a *AggregatorNode) Suspects() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.suspectAfter <= 0 {
		return nil
	}
	now := a.nowLocked()
	var out []string
	for p := range a.parties {
		if seen, ok := a.lastSeen[p]; ok && now.Sub(seen) >= a.suspectAfter {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// EvictedParties lists parties evicted and not readmitted (sorted).
func (a *AggregatorNode) EvictedParties() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return sortedKeys(a.evicted)
}
