package lint

// index.go is the module index every analyzer shares. Run builds it once,
// before any analyzer: every function unit of every loaded package, one
// superset call graph over them, and the callees-first schedule that solve
// — the linter's one interprocedural fixpoint loop — runs every call-graph
// summary on.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sync"
)

// moduleIndex is read-only once built, except for the unsettled list.
type moduleIndex struct {
	pkgs  []*Package
	units map[*Package][]*funcUnit // every function body, in source order
	all   []*funcUnit              // every unit, package by package
	decls []*funcUnit              // the declared functions among them
	byObj map[*types.Func]*funcUnit

	// The superset call graph: every call from a unit's body — function
	// literals and go statements included — into the module. A summary's
	// transfer decides which of these edges count for it; the schedule
	// only needs a superset of all of them.
	calls   map[*funcUnit][]*types.Func
	callers map[*funcUnit][]*funcUnit

	// comp numbers a unit's strongly connected component in Tarjan's
	// order, so callees' components come first; compSize is its size.
	comp     map[*funcUnit]int
	compSize []int

	// The summaries more than one analyzer reads: transitive I/O
	// (lockregion, ctxflow) and net class lock effects (lockregion,
	// lockorder).
	io      map[*types.Func]ioInfo
	classFX map[*types.Func][]classFX

	mu        sync.Mutex
	unsettled []Finding // lintsolver findings; solve may run inside Run
}

func newIndex(pkgs []*Package) *moduleIndex {
	ix := &moduleIndex{
		pkgs:    pkgs,
		units:   make(map[*Package][]*funcUnit),
		byObj:   make(map[*types.Func]*funcUnit),
		calls:   make(map[*funcUnit][]*types.Func),
		callers: make(map[*funcUnit][]*funcUnit),
		comp:    make(map[*funcUnit]int),
	}
	for _, pkg := range pkgs {
		us := funcUnits(pkg)
		ix.units[pkg] = us
		ix.all = append(ix.all, us...)
		for _, u := range us {
			if u.obj != nil {
				ix.decls = append(ix.decls, u)
				ix.byObj[u.obj] = u
			}
		}
	}
	for _, u := range ix.all {
		ast.Inspect(u.body(), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := calleeFunc(u.pkg, call)
			if f == nil || f.Pkg() == nil || !pathIn(f.Pkg().Path(), "deta") {
				return true
			}
			ix.calls[u] = append(ix.calls[u], f)
			// u's calls are indexed contiguously, so a repeated edge can
			// only be the last caller recorded.
			if c := ix.byObj[f]; c != nil {
				if cs := ix.callers[c]; len(cs) == 0 || cs[len(cs)-1] != u {
					ix.callers[c] = append(cs, u)
				}
			}
			return true
		})
	}
	comps := sccs(ix.all, func(u *funcUnit) []*funcUnit {
		var out []*funcUnit
		for _, f := range ix.calls[u] {
			if c := ix.byObj[f]; c != nil {
				out = append(out, c)
			}
		}
		return out
	})
	for i, comp := range comps {
		ix.compSize = append(ix.compSize, len(comp))
		for _, u := range comp {
			ix.comp[u] = i
		}
	}
	ix.io = computeIO(ix)
	ix.classFX = summarize(ix, "lock effects", ix.decls, unitClassFX, slices.Equal[[]classFX])
	return ix
}

// solve runs step over units until nothing changes. step recomputes one
// unit's summary and returns the units that read it and must re-run —
// usually the unit's callers, nil when nothing changed. The dirty unit
// of the lowest component runs first — callees before callers — so an
// acyclic chain of any depth settles in one pass and only recursive
// cycles iterate.
//
// A union-style summary travels a cycle of k functions in k passes, so a
// unit that runs more than k+1 times without new input from outside its
// cycle is oscillating (the lock-effect lattice is not monotone). solve
// then reports a lintsolver finding and returns false; callers must not
// use what step has computed so far.
func (ix *moduleIndex) solve(name string, units []*funcUnit, step func(*funcUnit) []*funcUnit) bool {
	order := slices.Clone(units)
	slices.SortStableFunc(order, func(a, b *funcUnit) int { return ix.comp[a] - ix.comp[b] })
	pos := make(map[*funcUnit]int, len(order))
	for i, u := range order {
		pos[u] = i
	}
	dirty := make([]bool, len(order))
	runs := make([]int, len(order))
	for i := range dirty {
		dirty[i] = true
	}
	for i := 0; i < len(order); {
		if !dirty[i] {
			i++
			continue
		}
		u := order[i]
		dirty[i] = false
		runs[i]++
		if size := ix.compSize[ix.comp[u]]; runs[i] > size+1 {
			ix.mu.Lock()
			ix.unsettled = append(ix.unsettled, newFinding("lintsolver", u.pkg.Fset.Position(u.node().Pos()),
				fmt.Sprintf("%s summary did not settle on the recursive cycle through %s (%d functions) after %d passes; its findings would be unsound",
					name, fnDisplayName(u), size, size+1)))
			ix.mu.Unlock()
			return false
		}
		next := i + 1
		for _, d := range step(u) {
			j, ok := pos[d]
			if !ok {
				continue
			}
			if ix.comp[d] != ix.comp[u] {
				runs[j] = 0 // new input from outside the cycle
			}
			dirty[j] = true
			next = min(next, j)
		}
		i = next
	}
	return true
}

// summarize solves one per-function summary: transfer computes u's
// summary from the current ones (sum, which still holds u's previous
// value, so a first-found witness can stick), and a change re-runs u's
// callers. It returns nil if a cycle did not settle.
func summarize[S any](ix *moduleIndex, name string, units []*funcUnit,
	transfer func(u *funcUnit, sum map[*types.Func]S) S, equal func(a, b S) bool) map[*types.Func]S {
	sum := make(map[*types.Func]S)
	step := func(u *funcUnit) []*funcUnit {
		s := transfer(u, sum)
		if equal(s, sum[u.obj]) {
			return nil
		}
		sum[u.obj] = s
		return ix.callers[u]
	}
	if !ix.solve(name, units, step) {
		return nil
	}
	return sum
}

func eq[T comparable](a, b T) bool { return a == b }

// sccs returns the strongly connected components of a graph in Tarjan's
// order: a component comes after every component it reaches.
func sccs[N comparable](nodes []N, succs func(N) []N) [][]N {
	index := make(map[N]int, len(nodes))
	low := make(map[N]int, len(nodes))
	onStack := make(map[N]bool)
	var stack []N
	var out [][]N
	var visit func(n N)
	visit = func(n N) {
		index[n], low[n] = len(index), len(index)
		stack = append(stack, n)
		onStack[n] = true
		for _, m := range succs(n) {
			if _, seen := index[m]; !seen {
				visit(m)
				low[n] = min(low[n], low[m])
			} else if onStack[m] {
				low[n] = min(low[n], index[m])
			}
		}
		if low[n] != index[n] {
			return
		}
		i := len(stack) - 1
		for stack[i] != n {
			i--
		}
		comp := slices.Clone(stack[i:])
		for _, m := range comp {
			onStack[m] = false
		}
		stack = stack[:i]
		out = append(out, comp)
	}
	for _, n := range nodes {
		if _, seen := index[n]; !seen {
			visit(n)
		}
	}
	return out
}

func newFinding(analyzer string, p token.Position, msg string) Finding {
	return Finding{Analyzer: analyzer, Pos: p, File: p.Filename, Line: p.Line, Col: p.Column, Message: msg}
}
