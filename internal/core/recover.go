package core

// Crash recovery for aggregator nodes: the records an AggregatorNode
// writes to its internal/journal write-ahead log, and the one path that
// replays them after a restart.
//
// Every record type has one payload encoding: uploads and fused rounds
// carry the transport fragment codec, the events the round-control layout
// of net.go. Compaction rewrites the log as the same records the live path
// writes, in an order that replays to exactly the node's state
// (compactRecordsLocked), so recovery is a single loop: every record in
// wal.log, in order, through applyRecord.

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"

	"deta/internal/agg"
	"deta/internal/journal"
	"deta/internal/sev"
	"deta/internal/tensor"
	"deta/internal/transport"
)

// Journal record types (journal.Record.Type). The values are on-disk
// format and are never reused: 2 and 3 were gob-payload fragment records
// and 4 dropped a round; replay rejects all three as unknown.
const (
	// Event records: a round-control body (flags 0) whose u32 holds the
	// round (fetch) or the new value (quorum, retention); see eventFields.
	recRegister  uint8 = 1 // a party was admitted
	recQuorum    uint8 = 5 // the party quorum changed
	recRetention uint8 = 6 // the round-retention bound changed
	recFetch     uint8 = 7 // advisory: an aggregated fragment was served

	// Fragment-carrying records: their payload is a transport fragment
	// encoding, the one the fragment arrived in.
	recUpload    uint8 = 8 // an accepted fragment (fsynced before ack)
	recAggregate uint8 = 9 // a fused round; carries the fused vector

	// Party-churn records (lifecycle.go). Suspicion is derived state and
	// never journaled; only the membership *decisions* are, so a crash
	// between suspect and evict replays to the pre-evict membership — the
	// same state an uncrashed node would be in.
	recEvict  uint8 = 10 // a silent party was evicted from membership
	recRejoin uint8 = 11 // an evicted party was readmitted
)

// eventFields says which round-control fields each event record carries.
// A type missing here is a fragment record or unknown.
var eventFields = map[uint8]ctlFields{
	recRegister:  {party: true},
	recQuorum:    {round: true},
	recRetention: {round: true},
	recFetch:     {round: true, party: true},
	recEvict:     {party: true},
	recRejoin:    {party: true},
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

// applyRecord replays one journal record through the state change the
// live path made when it wrote the record.
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
	has, ok := eventFields[r.Type]
	if !ok {
		return fmt.Errorf("unknown record type %d", r.Type)
	}
	_, n, party, err := decodeCtl(r.Data, has)
	if err != nil {
		return fmt.Errorf("record type %d: %w", r.Type, err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch r.Type {
	case recRegister:
		a.parties[party] = true
		delete(a.evicted, party)
	case recQuorum:
		a.quorum = n
	case recRetention:
		a.retention = n
		a.evictLocked(a.lastAggregated)
	case recFetch:
		if info != nil {
			info.FetchesServed++
		}
	case recEvict:
		delete(a.parties, party)
		delete(a.lastSeen, party)
		a.evicted[party] = true
	case recRejoin:
		delete(a.evicted, party)
		a.parties[party] = true
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
// fixed-layout wire codec — the same encoding the fragment arrived in.
// The encoding reuses a.walBuf, so steady-state uploads
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

// logEvent journals an event record best-effort, for mutations that are
// self-healing after a crash (registration, config); errors are ignored by
// design. n is the record's round or value (see eventFields). Callers must
// hold a.mu.
func (a *AggregatorNode) logEvent(typ uint8, n int, party string) {
	if data, ok := a.encodeEventLocked(n, party); ok {
		a.journal.Append(typ, data)
	}
}

// logEventAdvisory journals an event record without fsync, for records
// whose loss is harmless (fetch-served audit trail). Callers must hold a.mu.
func (a *AggregatorNode) logEventAdvisory(typ uint8, n int, party string) {
	if data, ok := a.encodeEventLocked(n, party); ok {
		a.journal.AppendNoSync(typ, data)
	}
}

// encodeEventLocked encodes an event record's round-control body into
// a.walBuf, reused as logFragmentDurable does. ok is false with no journal
// attached or when the body does not encode. Callers must hold a.mu.
func (a *AggregatorNode) encodeEventLocked(n int, party string) (data []byte, ok bool) {
	if a.journal == nil {
		return nil, false
	}
	data, err := appendCtl(a.walBuf[:0], 0, n, party)
	if err != nil {
		return nil, false
	}
	a.walBuf = data
	return data, true
}

// maybeCompactLocked rewrites the journal as the node's current state once
// its tail exceeds the compaction threshold, bounding disk usage and
// restart replay time. Compaction failure is non-fatal (the log itself is
// intact; the next mutation past the threshold retries). Callers must hold
// a.mu.
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
	recs, err := a.compactRecordsLocked()
	if err != nil {
		return
	}
	a.journal.Compact(recs)
}

// compactRecordsLocked writes the node's durable state as the records the
// live path writes, in the order that makes applyRecord replay to exactly
// that state:
//
//   - quorum, then retention;
//   - fused rounds, ascending: each round's uploads, then its
//     recAggregate. Every fused round the node holds lies above the
//     retention horizon of the rounds fused before it, so no eviction that
//     replay re-runs removes one;
//   - open rounds, ascending. They may lie below the horizon (a
//     straggler's upload after its round was evicted), and replaying an
//     upload evicts nothing;
//   - membership: recRegister for every party, recEvict for every evicted
//     one. It comes last because replaying an upload readmits its party.
//
// Rounds and parties are written in sorted order, so the same state always
// compacts to the same bytes. Callers must hold a.mu.
func (a *AggregatorNode) compactRecordsLocked() ([]journal.Record, error) {
	var (
		recs  []journal.Record
		first error // the first encoding error, if any
	)
	add := func(typ uint8, data []byte, err error) {
		recs = append(recs, journal.Record{Type: typ, Data: data})
		if first == nil {
			first = err
		}
	}
	event := func(typ uint8, n int, party string) {
		data, err := appendCtl(nil, 0, n, party)
		add(typ, data, err)
	}
	fragment := func(typ uint8, round int, party string, v tensor.Vector, weight float64) {
		data, err := transport.AppendFragment(nil, &transport.Fragment{Round: round, PartyID: party, Weight: weight, Values: v})
		add(typ, data, err)
	}
	event(recQuorum, a.quorum, "")
	event(recRetention, a.retention, "")
	rounds := sortedKeys(a.rounds)
	for _, fused := range []bool{true, false} {
		for _, r := range rounds {
			rs := a.rounds[r]
			if (rs.aggregated != nil) != fused {
				continue
			}
			for _, p := range sortedKeys(rs.fragments) {
				fragment(recUpload, r, p, rs.fragments[p], rs.weights[p])
			}
			if fused {
				fragment(recAggregate, r, "", rs.aggregated, 0)
			}
		}
	}
	for _, p := range sortedKeys(a.parties) {
		event(recRegister, 0, p)
	}
	for _, p := range sortedKeys(a.evicted) {
		event(recEvict, 0, p)
	}
	return recs, first
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
