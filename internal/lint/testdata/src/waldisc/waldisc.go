// Package core poses as deta/internal/core for the waldisc fixture: every
// durable AggregatorNode/roundState mutation must be dominated by a
// journal append of sufficient strength. Each want marker is an
// ack-before-durability defect; the clean shapes live in waldisc_clean.go.
package core

// Journal mirrors the WAL surface waldisc recognizes by receiver type.
type Journal struct{}

func (j *Journal) Append(typ byte, data []byte) error { return nil }
func (j *Journal) Compact() error                     { return nil }

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

// appendLocked is a guard by name: with no journal it appends nothing, so
// the must-solver alone would not make it a wrapper.
func (a *AggregatorNode) appendLocked(rec record) error {
	if a.journal == nil {
		return nil
	}
	return a.journal.Append(rec.typ, nil)
}

// Upload is the acceptance-criterion case: the round-creation insert has
// been deliberately reordered ahead of the durable append, so a crash
// after the ack would leave a round the journal never heard of.
func (a *AggregatorNode) Upload(party string, round int, frag []float64, weight float64) error {
	rs, ok := a.rounds[round]
	if !ok {
		rs = newRoundState()
		a.rounds[round] = rs // want waldisc
	}
	if err := a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: weight}); err != nil {
		return err
	}
	rs.uploads[party] = contribution{frag, weight}
	return nil
}

// StoreUnchecked discards the durable append's error, demoting it to
// best-effort — not enough for the payload maps.
func (a *AggregatorNode) StoreUnchecked(party string, round int, frag []float64) {
	rs := a.rounds[round]
	a.appendLocked(record{typ: 1, n: round, party: party, frag: frag, weight: 1})
	rs.uploads[party] = contribution{frag, 1} // want waldisc
}

// SetQuorumFlaky only appends on one branch: the branch head does not
// dominate the mutation.
func (a *AggregatorNode) SetQuorumFlaky(n int, loud bool) {
	if loud {
		a.appendLocked(record{typ: 2, n: n})
	}
	a.quorum = n // want waldisc
}

// BumpRetention mutates through IncDecStmt with no append anywhere.
func (a *AggregatorNode) BumpRetention() {
	a.retention++ // want waldisc
}

// admit is an unexported helper: its unguarded membership write becomes a
// summary that surfaces at call sites, not here.
func (a *AggregatorNode) admit(party string) {
	a.parties[party] = true
}

// ApplyDirect skips the log: apply's writes surface at the call.
func (a *AggregatorNode) ApplyDirect(rec record) {
	a.apply(rec) // want waldisc
}

// RegisterLoose calls the helper with no append in sight: the summary
// mutation is reported at the call.
func (a *AggregatorNode) RegisterLoose(party string) {
	a.admit(party) // want waldisc
}

// RegisterJournaled guards the same helper call with a same-block append.
func (a *AggregatorNode) RegisterJournaled(party string) {
	a.appendLocked(record{typ: 1, party: party})
	a.admit(party)
}

// journalChecked appends (checked) on every path through its body: the
// backward must-solver classifies it a strength-2 guard wrapper.
func (a *AggregatorNode) journalChecked(typ byte, data []byte) error {
	if len(data) > 1024 {
		if err := a.journal.Append(typ, data[:1024]); err != nil {
			return err
		}
		return nil
	}
	if err := a.journal.Append(typ, data); err != nil {
		return err
	}
	return nil
}

// AggregateVia relies on the wrapper: checked call to journalChecked
// dominates the aggregate write, so this is clean.
func (a *AggregatorNode) AggregateVia(round int, out []float64) error {
	rs := a.rounds[round]
	if err := a.journalChecked(9, nil); err != nil {
		return err
	}
	rs.aggregated = out
	return nil
}

// journalMaybe skips the append when journaling is off: some path through
// the body appends nothing, so it is NOT a guard wrapper.
func (a *AggregatorNode) journalMaybe(typ byte, data []byte) error {
	if a.journal == nil {
		return nil
	}
	return a.journal.Append(typ, data)
}

// DropRoundMaybe trusts the non-wrapper: the delete stays unguarded.
func (a *AggregatorNode) DropRoundMaybe(round int) error {
	if err := a.journalMaybe(7, nil); err != nil {
		return err
	}
	delete(a.rounds, round) // want waldisc
	return nil
}

// RegisterDeep reaches an unguarded membership write twenty unexported
// helpers down (declared callee-first); the summary surfaces it here.
func (a *AggregatorNode) admitDeep20(party string) { a.parties[party] = true }
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
	a.admitDeep1(party) // want waldisc
}
