// Clean shapes for the waldisc fixture: appends that genuinely dominate
// their mutations, ephemeral writes, guarded deletes, and the exempt
// replay functions. No want markers in this file.
package core

// SetQuorum is the canonical discipline: append first, mutate in the same
// block.
func (a *AggregatorNode) SetQuorum(n int) {
	a.logEvent(2, "")
	a.quorum = n
}

// ReapIdle mirrors the real reap loop: the per-iteration append precedes
// the deletes and the eviction flag inside the same loop-body block.
func (a *AggregatorNode) ReapIdle(idle []string) {
	for _, p := range idle {
		a.logEvent(3, p)
		delete(a.parties, p)
		a.evicted[p] = true
	}
}

// SealRounds appends once before the loop: the append block dominates
// every iteration.
func (a *AggregatorNode) SealRounds(last int) error {
	if err := a.logFragmentDurable(9, "", last, nil, 0); err != nil {
		return err
	}
	for r := range a.rounds {
		if r < last {
			delete(a.rounds, r)
		}
	}
	a.lastAggregated = last
	return nil
}

// Touch writes only ephemeral fields: no journal append required.
func (a *AggregatorNode) Touch(round int, now int64) {
	a.clock = now
	if rs := a.rounds[round]; rs != nil {
		rs.openedAt = now
	}
}

// UploadGuarded keeps the required order: the checked durable append
// dominates the round insert, the payload writes, and the rollback delete
// on the error branch (a guarded delete needs only strength 1).
func (a *AggregatorNode) UploadGuarded(party string, round int, frag []float64, weight float64) error {
	if err := a.logFragmentDurable(1, party, round, frag, weight); err != nil {
		delete(a.rounds, round)
		return err
	}
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs
	}
	rs.fragments[party] = frag
	rs.weights[party] = weight
	return nil
}

// applyRecord is the replay side of the protocol: it rebuilds state FROM
// the journal and is exempt by name.
func (a *AggregatorNode) applyRecord(typ byte, party string, round int) {
	switch typ {
	case 3:
		delete(a.parties, party)
		a.evicted[party] = true
	case 7:
		delete(a.rounds, round)
	}
}
