// Clean shapes for the waldisc fixture: appends that genuinely dominate
// their mutations, ephemeral writes, guarded deletes, and the
// log-then-apply seam. No want markers in this file.
package core

// SetQuorum is the canonical discipline: append first, mutate in the same
// block.
func (a *AggregatorNode) SetQuorum(n int) {
	a.appendLocked(record{typ: 2, n: n})
	a.quorum = n
}

// ReapIdle mirrors the real reap loop: the per-iteration append precedes
// the deletes and the eviction flag inside the same loop-body block.
func (a *AggregatorNode) ReapIdle(idle []string) {
	for _, p := range idle {
		a.appendLocked(record{typ: 3, party: p})
		delete(a.parties, p)
		a.evicted[p] = true
	}
}

// SealRounds appends once before the loop: the append block dominates
// every iteration.
func (a *AggregatorNode) SealRounds(last int) error {
	if err := a.appendLocked(record{typ: 9, n: last}); err != nil {
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
	if err := a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: weight}); err != nil {
		delete(a.rounds, round)
		return err
	}
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs
	}
	rs.uploads[party] = contribution{frag, weight}
	return nil
}

// commitLocked is the log-then-apply seam: the checked append dominates
// apply, so apply's writes are guarded here and surface nowhere above.
func (a *AggregatorNode) commitLocked(rec record) error {
	if err := a.appendLocked(rec); err != nil {
		return err
	}
	a.apply(rec)
	return nil
}

// apply is the one state writer, which replay also runs. It is not
// exempt: its writes surface at any call commitLocked does not guard.
func (a *AggregatorNode) apply(rec record) {
	switch rec.typ {
	case 3:
		delete(a.parties, rec.party)
		a.evicted[rec.party] = true
	case 7:
		delete(a.rounds, rec.n)
	}
}

// Evict changes state only through the seam.
func (a *AggregatorNode) Evict(party string) error {
	return a.commitLocked(record{typ: 3, party: party})
}

// AggregateDeep is guarded by a checked append twenty wrappers down
// (declared callee-first): every wrapper appends on every path, so the
// strength-2 guard reaches the call site and the write is clean.
func (a *AggregatorNode) journalDeep20(typ byte) error { return a.journal.Append(typ, nil) }
func (a *AggregatorNode) journalDeep19(typ byte) error { return a.journalDeep20(typ) }
func (a *AggregatorNode) journalDeep18(typ byte) error { return a.journalDeep19(typ) }
func (a *AggregatorNode) journalDeep17(typ byte) error { return a.journalDeep18(typ) }
func (a *AggregatorNode) journalDeep16(typ byte) error { return a.journalDeep17(typ) }
func (a *AggregatorNode) journalDeep15(typ byte) error { return a.journalDeep16(typ) }
func (a *AggregatorNode) journalDeep14(typ byte) error { return a.journalDeep15(typ) }
func (a *AggregatorNode) journalDeep13(typ byte) error { return a.journalDeep14(typ) }
func (a *AggregatorNode) journalDeep12(typ byte) error { return a.journalDeep13(typ) }
func (a *AggregatorNode) journalDeep11(typ byte) error { return a.journalDeep12(typ) }
func (a *AggregatorNode) journalDeep10(typ byte) error { return a.journalDeep11(typ) }
func (a *AggregatorNode) journalDeep9(typ byte) error  { return a.journalDeep10(typ) }
func (a *AggregatorNode) journalDeep8(typ byte) error  { return a.journalDeep9(typ) }
func (a *AggregatorNode) journalDeep7(typ byte) error  { return a.journalDeep8(typ) }
func (a *AggregatorNode) journalDeep6(typ byte) error  { return a.journalDeep7(typ) }
func (a *AggregatorNode) journalDeep5(typ byte) error  { return a.journalDeep6(typ) }
func (a *AggregatorNode) journalDeep4(typ byte) error  { return a.journalDeep5(typ) }
func (a *AggregatorNode) journalDeep3(typ byte) error  { return a.journalDeep4(typ) }
func (a *AggregatorNode) journalDeep2(typ byte) error  { return a.journalDeep3(typ) }
func (a *AggregatorNode) journalDeep1(typ byte) error  { return a.journalDeep2(typ) }

func (a *AggregatorNode) AggregateDeep(round int, out []float64) error {
	rs := a.rounds[round]
	if err := a.journalDeep1(9); err != nil {
		return err
	}
	rs.aggregated = out
	return nil
}
