package core

// Crash recovery for aggregator nodes: the records an AggregatorNode
// writes to its internal/journal write-ahead log, and the one path that
// replays them after a restart.
//
// Log, then apply: every durable change to a node is a record, and apply is
// the only code that turns a record into state. Live mutators build the
// record and hand it to commitLocked, which appends it and then applies
// it; recovery decodes each record in wal.log, in order, and applies it.
// Replay therefore runs the very writes the live node ran; the one
// difference is that a replayed upload's values are read back from the log
// only once replay is done, and only if retention kept the upload.
//
// Every record type has one payload encoding: uploads and fused rounds
// carry the transport fragment codec, the events the round-control layout
// of net.go (appendRecord). A fragment is encoded at most once on the
// node: an upload that arrived over the network is journaled as its
// request body, and a fused round is held as its encoded record, which the
// WAL, compaction and every download share. Compaction rewrites the log as
// the same records, in an order that replays to exactly the node's state
// (compactRecordsLocked).

import (
	"bytes"
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
// format and are never reused: 2 and 3 were gob-payload fragment records,
// 4 dropped a round and 7 recorded a download; replay rejects all four as
// unknown.
const (
	// Event records: a round-control body (flags 0) whose u32 holds the
	// new value (quorum, retention); see eventFields.
	recRegister  uint8 = 1 // a party was admitted
	recQuorum    uint8 = 5 // the party quorum changed
	recRetention uint8 = 6 // the round-retention bound changed

	// Fragment-carrying records: their payload is a transport fragment
	// encoding, the one the fragment arrived in. Replay ignores its
	// fragment-index field.
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
	TornTail       bool // a torn/corrupt log tail was discarded
}

// RecoverAggregatorNode starts an aggregation service with a durable round
// journal under dir, replaying any existing journal first so a restarted
// aggregator resumes with every registration, uploaded fragment, and fused
// round it had acknowledged before the crash. The CVM must be provisioned
// and running (a restarted deployment re-runs Phase I attestation; the
// journal restores round state, not trust state).
//
// Replay streams wal.log once and applies each record as it is scanned.
// An upload is applied from its header alone, as an unread contribution
// holding its record's offset, so the 7 of every 8 uploads that retention
// drops before the log ends are never decoded. Before the journal is
// attached, the uploads still held are read back from the log and decoded
// (readBackLocked): recovery allocates in proportion to the state it
// restores, not to the log.
func RecoverAggregatorNode(id string, algorithm agg.Algorithm, cvm *sev.CVM, dir string, opts journal.Options) (*AggregatorNode, *RecoveryInfo, error) {
	node, err := NewAggregatorNode(id, algorithm, cvm)
	if err != nil {
		return nil, nil, err
	}
	j, truncated, err := journal.OpenFunc(dir, opts, func(r journal.Record, at int64) error {
		rc, err := decodeRecord(r, at)
		if err != nil {
			return fmt.Errorf("replaying journal: %w", err)
		}
		node.mu.Lock()
		node.apply(rc)
		node.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: aggregator %s: %w", id, err)
	}
	if testHookReplayed != nil {
		testHookReplayed()
	}
	info := &RecoveryInfo{TornTail: truncated}
	node.mu.Lock()
	defer node.mu.Unlock()
	if err := node.readBackLocked(j); err != nil {
		_ = j.Close() // recovery already failed; report the replay error
		return nil, nil, fmt.Errorf("core: aggregator %s: replaying journal: %w", id, err)
	}
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
	return node, info, nil
}

// testHookReplayed, when set, runs between replay's scan and its
// read-back: a test damages the log in that window.
var testHookReplayed func()

// readBackLocked decodes the values of every unread contribution — the
// uploads replay applied and retention kept — from its record in j, in log
// order, into pooled vectors. A record that no longer reads back is an
// error: it was committed once, so the log is damaged, not torn. Callers
// must hold a.mu.
func (a *AggregatorNode) readBackLocked(j *journal.Journal) error {
	type unread struct {
		round int
		party string
		at    int64
	}
	var pending []unread
	for r, rs := range a.rounds {
		for p, u := range rs.uploads {
			if u.unread {
				pending = append(pending, unread{r, p, u.at})
			}
		}
	}
	slices.SortFunc(pending, func(x, y unread) int { return cmp.Compare(x.at, y.at) })
	var buf []byte
	for _, u := range pending {
		r, err := j.ReadAt(u.at, buf)
		if err != nil {
			return err
		}
		buf = r.Data
		var f transport.Fragment
		if err := transport.DecodeFragment(r.Data, &f); err != nil {
			return fmt.Errorf("record at offset %d: %w", u.at, err)
		}
		uploads := a.rounds[u.round].uploads
		c := uploads[u.party]
		c.frag, c.unread = f.Values, false
		uploads[u.party] = c
	}
	return nil
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

// StateDirFor is the per-aggregator journal directory convention shared by
// Session.Setup and cmd/deta-aggregator: <stateDir>/<aggregatorID>.
func StateDirFor(stateDir, aggregatorID string) string {
	return filepath.Join(stateDir, aggregatorID)
}

// record is one durable change to a node, as a WAL record holds it. n is
// the round (uploads, fused rounds) or the new value (quorum,
// retention); party, frag and weight are set where the type carries them.
//
// wire, when set, is the record's payload already encoded, journaled as it
// is instead of through appendRecord. An upload received over the network
// carries its request body, which aliases transport's read buffer: the
// journal copies it, and apply never keeps it. A fused round always
// carries its encoding and no frag: apply keeps wire as the round's
// aggregated bytes.
//
// unread marks an upload replay decoded only as far as its header: frag
// is nil, and at is the offset of its record in the journal, from which
// RecoverAggregatorNode reads back the values if retention keeps it.
type record struct {
	typ    uint8
	n      int
	party  string
	frag   tensor.Vector
	weight float64
	wire   []byte
	unread bool
	at     int64
}

// carriesFragment reports whether records of type typ carry the fragment
// codec — an upload or a fused round, acknowledged only once durable —
// rather than a round-control body.
func carriesFragment(typ uint8) bool {
	return typ == recUpload || typ == recAggregate
}

// appendRecord appends the payload encoding of rec, which carries no wire,
// to dst.
func appendRecord(dst []byte, rec record) ([]byte, error) {
	if carriesFragment(rec.typ) {
		return transport.AppendFragment(dst, &transport.Fragment{
			Round: rec.n, PartyID: rec.party, Weight: rec.weight, Values: rec.frag,
		})
	}
	return appendCtl(dst, 0, rec.n, rec.party)
}

// decodeRecord is appendRecord's inverse for the record at offset at of
// the journal, whose Data is valid only for the call. An unknown type, or
// a body its type does not carry, is an error naming the type. Neither
// fragment record's values are decoded, and nothing the result holds
// aliases r.Data: an upload is validated, header and length alike, and
// comes back unread at its offset; a fused round carries a copy of its
// payload as wire.
func decodeRecord(r journal.Record, at int64) (record, error) {
	rec := record{typ: r.Type}
	if carriesFragment(r.Type) {
		var f transport.Fragment
		if err := transport.DecodeFragmentHeader(r.Data, &f); err != nil {
			return rec, fmt.Errorf("record type %d: %w", r.Type, err)
		}
		rec.n = f.Round
		if r.Type == recAggregate {
			rec.wire = bytes.Clone(r.Data)
			return rec, nil
		}
		rec.party, rec.weight, rec.unread, rec.at = f.PartyID, f.Weight, true, at
		return rec, nil
	}
	has, ok := eventFields[r.Type]
	if !ok {
		return rec, fmt.Errorf("unknown record type %d", r.Type)
	}
	var err error
	if _, rec.n, rec.party, err = decodeCtl(r.Data, has); err != nil {
		return rec, fmt.Errorf("record type %d: %w", r.Type, err)
	}
	return rec, nil
}

// apply makes the state change rec stands for. It is the only writer of
// the node's durable state — membership, quorum, retention, the rounds,
// their uploads and fused vectors — and the same code runs live (from
// commitLocked) and on replay. Callers must hold a.mu.
func (a *AggregatorNode) apply(rec record) {
	switch rec.typ {
	case recUpload:
		a.roundLocked(rec.n).uploads[rec.party] = contribution{frag: rec.frag, weight: rec.weight, unread: rec.unread, at: rec.at}
		// An accepted upload implies registration and readmission, even if
		// the best-effort record of either was lost.
		fallthrough
	case recRegister, recRejoin:
		a.parties[rec.party] = true
		delete(a.evicted, rec.party)
	case recAggregate:
		a.roundLocked(rec.n).aggregated = rec.wire
		a.lastAggregated = max(a.lastAggregated, rec.n)
	case recQuorum:
		a.quorum = rec.n
	case recRetention:
		a.retention = rec.n
	case recEvict:
		delete(a.parties, rec.party)
		delete(a.lastSeen, rec.party)
		a.evicted[rec.party] = true
	}
	// Retention evicts the rounds at or below the horizon after each fusion
	// and whenever the bound changes. It is a pure function of (rounds,
	// retention, lastAggregated), so replay reproduces the same bounded map
	// without eviction records of its own; replay's discards are these
	// evictions too. An evicted round's upload buffers are cleared and go
	// back to the pool, for the next round's decodes: the node owns them
	// and nothing else holds them. Its aggregated bytes do not, since a
	// download may still be writing them out without the lock.
	if (rec.typ == recAggregate || rec.typ == recRetention) && a.retention > 0 {
		for r, rs := range a.rounds {
			if r <= a.lastAggregated-a.retention {
				for _, u := range rs.uploads {
					release(u.frag)
				}
				delete(a.rounds, r)
			}
		}
	}
}

// commitLocked logs rec, then applies it: the one way live code changes
// durable state. A failed append of an upload or fused round returns the
// error and changes nothing, since those are acknowledged only once
// durable. Every other record applies even when its append fails:
// membership and configuration records are self-healing after a crash.
// Callers must hold a.mu.
//
//perf:hotpath
func (a *AggregatorNode) commitLocked(rec record) error {
	err := a.appendLocked(rec)
	if err != nil && carriesFragment(rec.typ) {
		return err
	}
	//lint:ignore allocfree a round's map is created once per round, sized for every party; the other writes overwrite or delete keys
	a.apply(rec)
	return err
}

// appendLocked appends rec to the journal: rec.wire as it is when set,
// else rec encoded into a.walBuf. The journal copies the record out
// before returning, which is what makes reusing walBuf, and journaling a
// request body that transport reuses, safe. With no journal attached it
// is a no-op. Callers must hold a.mu.
//
//perf:hotpath
func (a *AggregatorNode) appendLocked(rec record) error {
	if a.journal == nil {
		return nil
	}
	data := rec.wire
	if data == nil {
		var err error
		//lint:ignore allocfree walBuf is reused across records: it grows only until it fits the largest one
		if data, err = appendRecord(a.walBuf[:0], rec); err != nil {
			return err
		}
		a.walBuf = data
	}
	return a.journal.Append(rec.typ, data)
}

// maybeCompactLocked rewrites the journal as the node's current state once
// its tail exceeds the compaction threshold, bounding disk usage and
// restart replay time. Aggregate calls it once per fused round, right
// after retention has dropped a round, so the state it rewrites is at its
// smallest and no upload of the deployed protocol is waiting on a.mu.
// Compaction failure is non-fatal: the log itself is intact, and the next
// attempt waits for another threshold's worth of records rather than
// re-encoding the whole state at every fused round. Callers must hold
// a.mu.
func (a *AggregatorNode) maybeCompactLocked() {
	if a.journal == nil {
		return
	}
	threshold := a.compactEvery
	if threshold <= 0 {
		// A round writes N + 1 records (N uploads and the fusion), so 512
		// compacts about every 512 / (N+1) rounds.
		threshold = 512
	}
	tail := a.journal.TailLen()
	if tail < max(threshold, a.compactRetryAt) {
		return
	}
	recs, err := a.compactRecordsLocked()
	if err == nil {
		err = a.journal.Compact(recs)
	}
	a.compactRetryAt = 0
	if err != nil {
		a.compactRetryAt = tail + threshold
	}
}

// compactRecordsLocked writes the node's durable state as the records the
// live path commits, in the same encodings, in the order that makes
// apply replay to exactly that state:
//
//   - quorum, then retention;
//   - fused rounds, ascending: each round's uploads, then its
//     recAggregate, the round's held encoding written as it is. Every
//     fused round the node holds lies above the retention horizon of the
//     rounds fused before it, so no eviction that replay re-runs removes
//     one;
//   - open rounds, ascending. They may lie below the horizon (a
//     straggler's upload after its round was evicted), and replaying an
//     upload evicts nothing;
//   - membership: recRegister for every party, recEvict for every evicted
//     one. It comes last because replaying an upload readmits its party.
//
// Rounds and parties are written in sorted order, so the same state always
// compacts to the same bytes. Callers must hold a.mu.
func (a *AggregatorNode) compactRecordsLocked() ([]journal.Record, error) {
	recs := []record{{typ: recQuorum, n: a.quorum}, {typ: recRetention, n: a.retention}}
	rounds := sortedKeys(a.rounds)
	for _, fused := range []bool{true, false} {
		for _, r := range rounds {
			rs := a.rounds[r]
			if (rs.aggregated != nil) != fused {
				continue
			}
			for _, p := range sortedKeys(rs.uploads) {
				u := rs.uploads[p]
				recs = append(recs, record{typ: recUpload, n: r, party: p, frag: u.frag, weight: u.weight})
			}
			if fused {
				recs = append(recs, record{typ: recAggregate, n: r, wire: rs.aggregated})
			}
		}
	}
	for _, p := range sortedKeys(a.parties) {
		recs = append(recs, record{typ: recRegister, party: p})
	}
	for _, p := range sortedKeys(a.evicted) {
		recs = append(recs, record{typ: recEvict, party: p})
	}
	out := make([]journal.Record, len(recs))
	for i, rec := range recs {
		data := rec.wire
		if data == nil {
			var err error
			if data, err = appendRecord(nil, rec); err != nil {
				return nil, err
			}
		}
		out[i] = journal.Record{Type: rec.typ, Data: data}
	}
	return out, nil
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
