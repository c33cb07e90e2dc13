package core

// Crash recovery for aggregator nodes: the event/snapshot encoding written
// to the internal/journal write-ahead log, and the replay path that
// rehydrates an AggregatorNode after a restart.
//
// Replay is idempotent by construction — registering twice, re-applying an
// identical upload, or re-setting an aggregated vector all converge to the
// same state — so a log whose records partially overlap the compaction
// snapshot (the window a crash between snapshot-rename and log-truncate
// leaves behind) replays safely on top of it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sort"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Journal record types (journal.Record.Type). The values are on-disk
// format: 2 and 3 were the gob-payload fragment records and are never
// reused — replay rejects them as unknown.
const (
	recRegister  uint8 = 1 // a party was admitted
	recDrop      uint8 = 4 // a round's state was explicitly dropped
	recQuorum    uint8 = 5 // the party quorum changed
	recRetention uint8 = 6 // the round-retention bound changed
	recFetch     uint8 = 7 // advisory: an aggregated fragment was served

	// Fragment-carrying records: their payload is a transport fragment
	// encoding, not a gob walEvent, so the hot upload path journals
	// without gob's reflection cost.
	recUpload    uint8 = 8 // an accepted fragment (fsynced before ack)
	recAggregate uint8 = 9 // a fused round; carries the fused vector

	// Party-churn records (lifecycle.go). Suspicion is derived state and
	// never journaled; only the membership *decisions* are, so a crash
	// between suspect and evict replays to the pre-evict membership — the
	// same state an uncrashed node would be in.
	recEvict  uint8 = 10 // a silent party was evicted from membership
	recRejoin uint8 = 11 // an evicted party was readmitted
)

// walEvent is the single gob-encoded payload shape shared by all record
// types that carry no fragment; unused fields stay at their zero values.
type walEvent struct {
	Party string
	Round int
	N     int
}

// walRound is one round's state inside a compaction snapshot.
type walRound struct {
	Fragments  map[string][]float64
	Weights    map[string]float64
	Aggregated []float64
}

// walSnapshot is the full-node compaction snapshot. Evicted was added with
// the churn records; gob keeps old snapshots decodable (missing field
// stays empty) and old binaries tolerant of new ones.
type walSnapshot struct {
	Parties        []string
	Quorum         int
	Retention      int
	LastAggregated int
	Rounds         map[int]walRound
	Evicted        []string
}

func encodeWAL(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeWAL(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// RecoveryInfo summarizes what a journal replay restored, for boot logging.
type RecoveryInfo struct {
	Parties        int  // registered parties restored
	Evicted        int  // parties evicted for silence and not readmitted
	Rounds         int  // rounds held in memory after replay
	Aggregated     int  // of those, rounds with a fused vector
	LastAggregated int  // highest fused round (resume initiator sync here)
	FetchesServed  int  // advisory fetch records seen in the log
	TornTail       bool // a torn/corrupt log tail was discarded
}

// RecoverAggregatorNode starts an aggregation service with a durable round
// journal under dir, replaying any existing journal first so a restarted
// aggregator resumes with every registration, uploaded fragment, and fused
// round it had acknowledged before the crash. The CVM must be provisioned
// and running (a restarted deployment re-runs Phase I attestation; the
// journal restores round state, not trust state).
func RecoverAggregatorNode(id string, algorithm agg.Algorithm, cvm *sev.CVM, dir string, opts journal.Options) (*AggregatorNode, *RecoveryInfo, error) {
	node, err := NewAggregatorNode(id, algorithm, cvm)
	if err != nil {
		return nil, nil, err
	}
	j, rec, err := journal.Open(dir, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: aggregator %s: %w", id, err)
	}
	info := &RecoveryInfo{TornTail: rec.Truncated}
	if rec.Snapshot != nil {
		var snap walSnapshot
		if err := decodeWAL(rec.Snapshot, &snap); err != nil {
			_ = j.Close() // recovery already failed; report the decode error
			return nil, nil, fmt.Errorf("core: aggregator %s: decoding snapshot: %w", id, err)
		}
		node.restoreSnapshot(snap)
	}
	for _, r := range rec.Records {
		if err := node.applyRecord(r, info); err != nil {
			_ = j.Close() // recovery already failed; report the replay error
			return nil, nil, fmt.Errorf("core: aggregator %s: replaying journal: %w", id, err)
		}
	}
	node.mu.Lock()
	node.journal = j
	info.Parties = len(node.parties)
	info.Evicted = len(node.evicted)
	info.Rounds = len(node.rounds)
	info.LastAggregated = node.lastAggregated
	for _, rs := range node.rounds {
		if rs.aggregated != nil {
			info.Aggregated++
		}
	}
	node.mu.Unlock()
	return node, info, nil
}

// CloseJournal flushes and closes the attached journal (no-op without
// one); the node keeps serving from memory afterwards.
func (a *AggregatorNode) CloseJournal() error {
	a.mu.Lock()
	j := a.journal
	a.journal = nil
	a.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Close()
}

// JournalDir returns the attached journal's directory ("" without one).
func (a *AggregatorNode) JournalDir() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.journal == nil {
		return ""
	}
	return a.journal.Dir()
}

// StateDirFor is the per-aggregator journal directory convention shared by
// Session.Setup and cmd/deta-aggregator: <stateDir>/<aggregatorID>.
func StateDirFor(stateDir, aggregatorID string) string {
	return filepath.Join(stateDir, aggregatorID)
}

// restoreSnapshot loads a compaction snapshot into a fresh node.
func (a *AggregatorNode) restoreSnapshot(snap walSnapshot) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range snap.Parties {
		a.parties[p] = true
	}
	for _, p := range snap.Evicted {
		a.evicted[p] = true
	}
	a.quorum = snap.Quorum
	a.retention = snap.Retention
	a.lastAggregated = snap.LastAggregated
	for round, wr := range snap.Rounds {
		rs := newRoundState()
		for id, f := range wr.Fragments {
			rs.fragments[id] = tensor.Vector(f)
		}
		for id, w := range wr.Weights {
			rs.weights[id] = w
		}
		if wr.Aggregated != nil {
			rs.aggregated = tensor.Vector(wr.Aggregated)
		}
		a.rounds[round] = rs
	}
}

// applyRecord replays one journal record. Application is idempotent, so
// records that overlap the snapshot re-apply harmlessly.
func (a *AggregatorNode) applyRecord(r journal.Record, info *RecoveryInfo) error {
	if r.Type == recUpload || r.Type == recAggregate {
		var f transport.Fragment
		if err := transport.DecodeFragment(r.Data, &f); err != nil {
			return fmt.Errorf("record type %d: %w", r.Type, err)
		}
		a.mu.Lock()
		defer a.mu.Unlock()
		if r.Type == recUpload {
			// An accepted upload implies registration even if the register
			// record itself was lost — and implies the party is not evicted
			// (the live path journals recRejoin first; that record is
			// best-effort, so self-heal here if it was lost).
			a.parties[f.PartyID] = true
			delete(a.evicted, f.PartyID)
			rs, ok := a.rounds[f.Round]
			if !ok {
				rs = newRoundState()
				a.rounds[f.Round] = rs
			}
			rs.fragments[f.PartyID] = f.Values
			rs.weights[f.PartyID] = f.Weight
		} else {
			a.applyAggregated(f.Round, f.Values)
		}
		return nil
	}
	var ev walEvent
	if err := decodeWAL(r.Data, &ev); err != nil {
		return fmt.Errorf("record type %d: %w", r.Type, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch r.Type {
	case recRegister:
		a.parties[ev.Party] = true
		delete(a.evicted, ev.Party)
	case recDrop:
		delete(a.rounds, ev.Round)
	case recQuorum:
		a.quorum = ev.N
	case recRetention:
		a.retention = ev.N
		a.evictLocked(a.lastAggregated)
	case recFetch:
		if info != nil {
			info.FetchesServed++
		}
	case recEvict:
		delete(a.parties, ev.Party)
		delete(a.lastSeen, ev.Party)
		a.evicted[ev.Party] = true
	case recRejoin:
		delete(a.evicted, ev.Party)
		a.parties[ev.Party] = true
	default:
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	return nil
}

// applyAggregated installs a fused vector for a round and runs the
// retention eviction — shared by the live Aggregate path and replay so
// both produce identical state. Callers must hold a.mu.
func (a *AggregatorNode) applyAggregated(round int, fused tensor.Vector) {
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs
	}
	rs.aggregated = fused
	if round > a.lastAggregated {
		a.lastAggregated = round
	}
	a.evictLocked(a.lastAggregated)
}

// logFragmentDurable commits a fragment-carrying record (fsync) before
// the caller acknowledges the mutation, encoding the payload with the
// fixed-layout wire codec — the same encoding the fragment arrived in —
// instead of gob. The encoding reuses a.walBuf, so steady-state uploads
// journal without allocating; the journal copies the record out before
// Append returns, which is what makes the reuse safe. With no journal
// attached it is a no-op. Callers must hold a.mu.
//
//perf:hotpath
func (a *AggregatorNode) logFragmentDurable(typ uint8, party string, round int, frag tensor.Vector, weight float64) error {
	if a.journal == nil {
		return nil
	}
	data, err := transport.AppendFragment(a.walBuf[:0], &transport.Fragment{
		Round: round, PartyID: party, Weight: weight, Values: frag,
	})
	if err != nil {
		return err
	}
	a.walBuf = data
	return a.journal.Append(typ, data)
}

// logEvent journals best-effort for mutations that are self-healing after
// a crash (registration, config); errors are ignored by design. Callers
// must hold a.mu.
func (a *AggregatorNode) logEvent(typ uint8, ev walEvent) {
	if a.journal == nil {
		return
	}
	if data, err := encodeWAL(ev); err == nil {
		a.journal.Append(typ, data)
	}
}

// logEventAdvisory journals without fsync, for records whose loss is
// harmless (fetch-served audit trail). Callers must hold a.mu.
func (a *AggregatorNode) logEventAdvisory(typ uint8, ev walEvent) {
	if a.journal == nil {
		return
	}
	if data, err := encodeWAL(ev); err == nil {
		a.journal.AppendNoSync(typ, data)
	}
}

// maybeCompactLocked snapshots and truncates the journal once its tail
// exceeds the compaction threshold, bounding disk usage and restart replay
// time. Compaction failure is non-fatal (the WAL itself is intact; the
// next mutation past the threshold retries). Callers must hold a.mu.
func (a *AggregatorNode) maybeCompactLocked() {
	if a.journal == nil {
		return
	}
	threshold := a.compactEvery
	if threshold <= 0 {
		threshold = 1024
	}
	if a.journal.TailLen() < threshold {
		return
	}
	data, err := encodeWAL(a.snapshotLocked())
	if err != nil {
		return
	}
	a.journal.Compact(data)
}

// snapshotLocked captures the node's full state as a compaction snapshot.
// Slice-valued fields are built in sorted order so the snapshot content
// is deterministic for a given state — map iteration order must never
// leak into what gets written to disk. Callers must hold a.mu.
func (a *AggregatorNode) snapshotLocked() walSnapshot {
	snap := walSnapshot{
		Quorum:         a.quorum,
		Retention:      a.retention,
		LastAggregated: a.lastAggregated,
		Rounds:         make(map[int]walRound, len(a.rounds)),
	}
	for p := range a.parties {
		snap.Parties = append(snap.Parties, p)
	}
	sort.Strings(snap.Parties)
	for p := range a.evicted {
		snap.Evicted = append(snap.Evicted, p)
	}
	sort.Strings(snap.Evicted)
	for round, rs := range a.rounds {
		wr := walRound{
			Fragments: make(map[string][]float64, len(rs.fragments)),
			Weights:   make(map[string]float64, len(rs.weights)),
		}
		for id, f := range rs.fragments {
			wr.Fragments[id] = f
		}
		for id, w := range rs.weights {
			wr.Weights[id] = w
		}
		if rs.aggregated != nil {
			wr.Aggregated = rs.aggregated
		}
		snap.Rounds[round] = wr
	}
	return snap
}
