package lint

import (
	"go/types"
	"slices"
	"strings"
	"testing"
)

// depth is a synthetic summary: one more than the deepest callee. It
// settles on a chain and grows forever around a cycle.
func depth(ix *moduleIndex) map[*types.Func]int {
	return summarize(ix, "depth", ix.decls, func(u *funcUnit, sum map[*types.Func]int) int {
		d := 0
		for _, f := range ix.calls[u] {
			d = max(d, sum[f]+1)
		}
		return d
	}, eq[int])
}

// unsettled is an analyzer whose only work is a summary that never
// settles, so Run must surface the solver's finding.
type unsettled struct{}

func (unsettled) Name() string            { return "unsettled" }
func (unsettled) Doc() string             { return "test-only: a summary that never settles" }
func (unsettled) Run(*Package, *Reporter) {}
func (unsettled) Prepare(ix *moduleIndex) { depth(ix) }

// TestSolveChainOnePassCallees pins the schedule: a chain declared
// caller-first still runs callees first, each function exactly once.
func TestSolveChainOnePassCallees(t *testing.T) {
	ix := newIndex([]*Package{fixturePkg(t, NewLoader(), "solver", "deta/internal/solver")})
	var chain []*funcUnit
	for _, u := range ix.decls {
		if n := u.decl.Name.Name; n == "top" || n == "mid" || n == "leaf" {
			chain = append(chain, u)
		}
	}
	var ran []string
	got := ix.solve("chain", chain, func(u *funcUnit) []*funcUnit {
		ran = append(ran, u.decl.Name.Name)
		return ix.callers[u] // claim a change every time: callers re-run anyway
	})
	if !got || !slices.Equal(ran, []string{"leaf", "mid", "top"}) {
		t.Fatalf("solve = %v, ran %v; want true, [leaf mid top]", got, ran)
	}
}

// TestSolveUnsettledCycleIsAFinding pins the failure contract: a transfer
// that never settles on a recursive cycle yields a lintsolver finding and
// no summary, both from solve directly and through Run.
func TestSolveUnsettledCycleIsAFinding(t *testing.T) {
	pkg := fixturePkg(t, NewLoader(), "solver", "deta/internal/solver")
	ix := newIndex([]*Package{pkg})
	if sum := depth(ix); sum != nil {
		t.Fatalf("unsettled summary returned %v; want nil", sum)
	}
	if len(ix.unsettled) != 1 || !strings.Contains(ix.unsettled[0].Message, "depth summary did not settle") {
		t.Fatalf("unsettled = %v; want one depth finding", ix.unsettled)
	}
	findings := Run([]*Package{pkg}, []Analyzer{unsettled{}})
	if len(findings) != 1 || findings[0].Analyzer != "lintsolver" {
		t.Fatalf("Run = %v; want exactly one lintsolver finding", findings)
	}
	if line := findings[0].Line; line != 9 && line != 16 {
		t.Errorf("finding at line %d; want the cycle (even at 9 or odd at 16)", line)
	}
}
