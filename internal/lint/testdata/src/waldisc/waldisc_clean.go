// Clean shapes for the waldisc fixture: the log-then-apply seam, the one
// writer and its helper, replay, and ephemeral writes. No want markers in
// this file.
package core

// commitLocked is the seam: a checked append, then apply.
func (a *AggregatorNode) commitLocked(rec record) error {
	if err := a.appendLocked(rec); err != nil {
		return err
	}
	a.apply(rec)
	return nil
}

// apply is the one state writer, which replay also runs.
func (a *AggregatorNode) apply(rec record) {
	switch rec.typ {
	case 1:
		a.roundLocked(rec.n).uploads[rec.party] = contribution{rec.frag, rec.weight}
		a.parties[rec.party] = true
	case 2:
		a.quorum = rec.n
	case 3:
		delete(a.parties, rec.party)
		a.evicted[rec.party] = true
	case 7:
		delete(a.rounds, rec.n)
	case 9:
		a.lastAggregated = rec.n
		a.retention++
	}
}

// roundLocked is apply's helper: it may write, and only apply calls it.
func (a *AggregatorNode) roundLocked(round int) *roundState {
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs
	}
	return rs
}

// Evict changes state only through the seam.
func (a *AggregatorNode) Evict(party string) error {
	return a.commitLocked(record{typ: 3, party: party})
}

// Touch writes only ephemeral fields.
func (a *AggregatorNode) Touch(round int, now int64) {
	a.clock = now
	if rs := a.rounds[round]; rs != nil {
		rs.openedAt = now
	}
}

// openFunc stands in for journal.OpenFunc: it hands each record to fn.
func openFunc(recs []record, fn func(record) error) error {
	for _, rec := range recs {
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// RecoverAggregatorNode is replay: it applies every logged record from
// the literal it passes to openFunc, and its own writes are the log's.
func RecoverAggregatorNode(recs []record) (*AggregatorNode, error) {
	node := &AggregatorNode{parties: map[string]bool{}, rounds: map[int]*roundState{}, evicted: map[string]bool{}}
	err := openFunc(recs, func(rec record) error {
		node.apply(rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	node.quorum = max(node.quorum, 1)
	return node, node.readBackLocked(recs)
}

// readBackLocked is replay too: it fills the uploads replay applied.
func (a *AggregatorNode) readBackLocked(recs []record) error {
	for _, rec := range recs {
		if rs := a.rounds[rec.n]; rs != nil && rec.typ == 1 {
			rs.uploads[rec.party] = contribution{rec.frag, rec.weight}
		}
	}
	return nil
}
