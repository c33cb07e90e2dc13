// Package core poses as deta/internal/core for the waldisc fixture: only
// apply (and its helper roundLocked) may write durable AggregatorNode or
// roundState state, only commitLocked and replay may call apply, and
// commitLocked appends before it applies. Each want marker is a write
// replay would not rebuild or a call that skips the seam, however well a
// journal append guards it; the clean shapes live in waldisc_clean.go.
package core

// Journal mirrors the WAL surface of the real package.
type Journal struct{}

func (j *Journal) Append(typ byte, data []byte) error { return nil }

type roundState struct {
	uploads    map[string]contribution
	aggregated []float64
	openedAt   int64 // ephemeral: recovery restamps it
}

type AggregatorNode struct {
	parties        map[string]bool
	rounds         map[int]*roundState
	evicted        map[string]bool
	quorum         int
	retention      int
	lastAggregated int

	journal *Journal
	clock   int64 // ephemeral
}

type contribution struct {
	frag   []float64
	weight float64
}

type record struct {
	typ    byte
	n      int
	party  string
	frag   []float64
	weight float64
}

func newRoundState() *roundState {
	return &roundState{uploads: map[string]contribution{}}
}

func (a *AggregatorNode) appendLocked(rec record) error {
	if a.journal == nil {
		return nil
	}
	return a.journal.Append(rec.typ, nil)
}

// Upload creates the round ahead of the durable append, and then writes
// the upload itself: neither write is apply's, so replay would not make
// either.
func (a *AggregatorNode) Upload(party string, round int, frag []float64, weight float64) error {
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs // want waldisc
	}
	if err := a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: weight}); err != nil {
		return err
	}
	rs.uploads[party] = contribution{frag, weight} // want waldisc
	return nil
}

// UploadGuarded appends first, with its error checked, and still writes
// outside apply, the rollback delete included.
func (a *AggregatorNode) UploadGuarded(party string, round int, frag []float64, weight float64) error {
	if err := a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: weight}); err != nil {
		delete(a.rounds, round) // want waldisc
		return err
	}
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs // want waldisc
	}
	rs.uploads[party] = contribution{frag, weight} // want waldisc
	return nil
}

// StoreUnchecked discards the append's error before its write.
func (a *AggregatorNode) StoreUnchecked(party string, round int, frag []float64) {
	rs := a.rounds[round]
	a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: 1})
	rs.uploads[party] = contribution{frag, 1} // want waldisc
}

// SetQuorumFlaky only appends on one branch.
func (a *AggregatorNode) SetQuorumFlaky(n int, loud bool) {
	if loud {
		a.appendLocked(record{typ: 2, n: n})
	}
	a.quorum = n // want waldisc
}

// SetQuorum appends first in the same block: still not apply.
func (a *AggregatorNode) SetQuorum(n int) {
	a.appendLocked(record{typ: 2, n: n})
	a.quorum = n // want waldisc
}

// BumpRetention writes through an IncDecStmt.
func (a *AggregatorNode) BumpRetention() {
	a.retention++ // want waldisc
}

// ReapIdle appends per iteration before its deletes and eviction flag.
func (a *AggregatorNode) ReapIdle(idle []string) {
	for _, p := range idle {
		a.appendLocked(record{typ: 3, party: p})
		delete(a.parties, p) // want waldisc
		a.evicted[p] = true  // want waldisc
	}
}

// SealRounds appends once, before the loop that drops rounds.
func (a *AggregatorNode) SealRounds(last int) error {
	if err := a.appendLocked(record{typ: 9, n: last}); err != nil {
		return err
	}
	for r := range a.rounds {
		if r < last {
			delete(a.rounds, r) // want waldisc
		}
	}
	a.lastAggregated = last // want waldisc
	return nil
}

// DropRoundMaybe appends through a helper that may skip the journal.
func (a *AggregatorNode) journalMaybe(typ byte, data []byte) error {
	if a.journal == nil {
		return nil
	}
	return a.journal.Append(typ, data)
}

func (a *AggregatorNode) DropRoundMaybe(round int) error {
	if err := a.journalMaybe(7, nil); err != nil {
		return err
	}
	delete(a.rounds, round) // want waldisc
	return nil
}

// AggregateVia appends straight to the journal, checked, before the
// fused vector is stored.
func (a *AggregatorNode) AggregateVia(round int, out []float64) error {
	rs := a.rounds[round]
	if err := a.journal.Append(9, nil); err != nil {
		return err
	}
	rs.aggregated = out // want waldisc
	return nil
}

// ApplyDirect skips the log.
func (a *AggregatorNode) ApplyDirect(rec record) {
	a.apply(rec) // want waldisc
}

// ApplyLater takes apply as a method value: a use, not only a call.
func (a *AggregatorNode) ApplyLater() func(record) {
	return a.apply // want waldisc
}

// OpenRound creates a round through apply's helper with no record.
func (a *AggregatorNode) OpenRound(round int) *roundState {
	return a.roundLocked(round) // want waldisc
}

// ResetQuorum writes inside a function literal, which counts as the
// declaration it is written in.
func (a *AggregatorNode) ResetQuorum() func() {
	return func() {
		a.quorum = 0 // want waldisc
	}
}

// admit writes membership outside apply: the write is the finding, at
// every call depth, whether or not its caller appends first.
func (a *AggregatorNode) admit(party string) {
	a.parties[party] = true // want waldisc
}

func (a *AggregatorNode) RegisterLoose(party string) {
	a.admit(party)
}

func (a *AggregatorNode) RegisterJournaled(party string) {
	a.appendLocked(record{typ: 1, party: party})
	a.admit(party)
}

// RegisterDeep reaches a membership write twenty helpers down.
func (a *AggregatorNode) admitDeep20(party string) {
	a.parties[party] = true // want waldisc
}
func (a *AggregatorNode) admitDeep19(party string) { a.admitDeep20(party) }
func (a *AggregatorNode) admitDeep18(party string) { a.admitDeep19(party) }
func (a *AggregatorNode) admitDeep17(party string) { a.admitDeep18(party) }
func (a *AggregatorNode) admitDeep16(party string) { a.admitDeep17(party) }
func (a *AggregatorNode) admitDeep15(party string) { a.admitDeep16(party) }
func (a *AggregatorNode) admitDeep14(party string) { a.admitDeep15(party) }
func (a *AggregatorNode) admitDeep13(party string) { a.admitDeep14(party) }
func (a *AggregatorNode) admitDeep12(party string) { a.admitDeep13(party) }
func (a *AggregatorNode) admitDeep11(party string) { a.admitDeep12(party) }
func (a *AggregatorNode) admitDeep10(party string) { a.admitDeep11(party) }
func (a *AggregatorNode) admitDeep9(party string)  { a.admitDeep10(party) }
func (a *AggregatorNode) admitDeep8(party string)  { a.admitDeep9(party) }
func (a *AggregatorNode) admitDeep7(party string)  { a.admitDeep8(party) }
func (a *AggregatorNode) admitDeep6(party string)  { a.admitDeep7(party) }
func (a *AggregatorNode) admitDeep5(party string)  { a.admitDeep6(party) }
func (a *AggregatorNode) admitDeep4(party string)  { a.admitDeep5(party) }
func (a *AggregatorNode) admitDeep3(party string)  { a.admitDeep4(party) }
func (a *AggregatorNode) admitDeep2(party string)  { a.admitDeep3(party) }
func (a *AggregatorNode) admitDeep1(party string)  { a.admitDeep2(party) }

func (a *AggregatorNode) RegisterDeep(party string) {
	a.admitDeep1(party)
}

// AggregateDeep appends, checked, twenty helpers down before it stores
// the fused vector: a guard at any depth does not make the write apply's.
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
	rs.aggregated = out // want waldisc
	return nil
}
