package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// replaypure guards the other half of the crash-safety contract: recovery
// must rebuild the exact pre-crash aggregator state from the journal, and
// fusion must produce bit-identical tensors on every party — so the code
// transitively reachable from the replay roots (RecoverAggregatorNode and
// the WAL record handlers) and from the fusion kernels must be a pure
// function of its inputs. Prepare computes that reachable set once over
// the module index's call graph; Run then flags every nondeterminism
// source inside it:
//
//   - wall-clock reads (time.Now / time.Since / time.Until) outside
//     clock.go, the one file allowed to touch the real clock behind the
//     injectable core.Clock;
//   - the unseeded global math/rand source (package-level rand.Intn and
//     friends; a locally seeded *rand.Rand is fine and is how the
//     deterministic shuffle works);
//   - goroutine spawns, whose completion order the replayed run cannot
//     reproduce;
//   - map iteration whose order can reach output (the map-order checks
//     below).
//
// The map-order checks also run, without root provenance, over every
// function of the packages whose outputs must be bit-deterministic
// (mapOrderScope): the aggregators must fuse identically across parties
// whether or not a replay root reaches the code. Each function is
// checked once, so a line is reported once.
//
// Call edges stop at deta/internal/parallel (deterministic by
// construction: For joins all workers and the index partition is fixed)
// and deta/internal/journal (the thing being replayed, not a replay
// consumer). Edges through function literals and `go` statements are
// followed — a closure spawned during replay is still replay code.
type ReplayPure struct {
	ix    *moduleIndex
	reach map[*types.Func]string // reachable function -> root it was reached from
}

func (*ReplayPure) Name() string { return "replaypure" }
func (*ReplayPure) Doc() string {
	return "flag nondeterminism (wall clock, global rand, goroutines, map order) reachable from replay roots or fusion kernels, and map order in the deterministic packages"
}

// replayRootNames keys the roots by package: in core the recovery entry
// point and apply, the one state writer replay and the live path share;
// in agg every fusion kernel (the Aggregate methods).
var replayRootNames = map[string]map[string]bool{
	"deta/internal/core": {
		"RecoverAggregatorNode": true,
		"apply":                 true,
	},
	"deta/internal/agg": {
		"Aggregate": true,
	},
}

// replayEdgeInto reports whether the call graph follows edges into the
// package at path.
func replayEdgeInto(path string) bool {
	return pathIn(path, "deta") &&
		path != "deta/internal/parallel" &&
		path != "deta/internal/journal"
}

// Prepare BFS-marks everything reachable from the roots. Roots are
// discovered in package/source order and the queue preserves it, so the
// root-provenance recorded for each function is deterministic.
func (a *ReplayPure) Prepare(ix *moduleIndex) {
	a.ix = ix
	a.reach = map[*types.Func]string{}
	var queue []*types.Func
	for _, u := range ix.decls {
		if name := u.decl.Name.Name; replayRootNames[u.pkg.Path][name] && a.reach[u.obj] == "" {
			a.reach[u.obj] = name
			queue = append(queue, u.obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range ix.calls[ix.byObj[fn]] {
			if _, seen := a.reach[callee]; seen || !replayEdgeInto(callee.Pkg().Path()) {
				continue
			}
			a.reach[callee] = a.reach[fn]
			queue = append(queue, callee)
		}
	}
}

// Run checks each replay-reachable declaration in pkg, and map order in
// every declaration of a mapOrderScope package.
func (a *ReplayPure) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, "deta") {
		return
	}
	inScope := pathIn(pkg.Path, mapOrderScope...)
	for _, u := range a.ix.units[pkg] {
		if u.obj == nil {
			continue
		}
		if root, reachable := a.reach[u.obj]; reachable {
			a.checkFunc(pkg, r, u.decl, root)
		} else if inScope {
			checkMapOrderFunc(pkg, r, u.decl, "")
		}
	}
}

func (a *ReplayPure) checkFunc(pkg *Package, r *Reporter, fd *ast.FuncDecl, root string) {
	inClockFile := filepath.Base(pkg.Fset.Position(fd.Pos()).Filename) == "clock.go"
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			r.Reportf(v.Pos(),
				"goroutine spawned in %s (replay-reachable from %s): completion order is not reproducible on replay",
				fd.Name.Name, root)
		case *ast.CallExpr:
			fn := calleeFunc(pkg, v)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if inClockFile {
					return true
				}
				switch fn.Name() {
				case "Now", "Since", "Until":
					r.Reportf(v.Pos(),
						"wall-clock read time.%s in %s (replay-reachable from %s): replay cannot reproduce it — plumb core.Clock instead",
						fn.Name(), fd.Name.Name, root)
				}
			case "math/rand", "math/rand/v2":
				// Package-level calls draw from the shared global source;
				// constructing a seeded local source is the sanctioned path.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					switch fn.Name() {
					case "New", "NewSource", "NewZipf":
					default:
						r.Reportf(v.Pos(),
							"global math/rand call rand.%s in %s (replay-reachable from %s): unseeded source breaks bit-identical replay — use a seeded *rand.Rand",
							fn.Name(), fd.Name.Name, root)
					}
				}
			}
		}
		return true
	})
	checkMapOrderFunc(pkg, r, fd, fmt.Sprintf(" in %s (replay-reachable from %s)", fd.Name.Name, root))
}

// mapOrderScope lists the packages whose outputs must be bit-deterministic.
var mapOrderScope = []string{
	"deta/internal/core",
	"deta/internal/agg",
	"deta/internal/journal",
	"deta/internal/tensor",
	"deta/internal/fl",
	"deta/internal/rng",
}

// Order-sensitive sinks: the Journal's appends, and the aggregator's
// helpers that append to it.
var (
	journalWriteMethods = map[string]bool{"Append": true, "Compact": true}
	coreJournalWrites   = map[string]bool{"appendLocked": true, "commitLocked": true}
)

// checkMapOrderFunc flags loop bodies in fn that make map iteration order
// observable. Go randomizes map iteration order per run, so any of the
// following inside `for ... range m` over a map is a nondeterminism bug
// unless proven otherwise:
//
//   - appending to a slice declared outside the loop (unless the slice is
//     passed to a sort.* / slices.* call later in the same function — the
//     collect-then-sort idiom is the blessed fix);
//   - compound accumulation (+= -= *= /=) into a float declared outside
//     the loop (float addition is not associative, so the sum's bits
//     depend on visit order);
//   - writing journal records (Journal.Append/Compact or the
//     aggregator's appendLocked/commitLocked) — the WAL's record order
//     would then differ between the original run and any re-execution.
//
// where is appended to the loop's description in each message (the
// replay provenance, or "").
func checkMapOrderFunc(pkg *Package, r *Reporter, fn *ast.FuncDecl, where string) {
	sorted := sortedExprs(pkg, fn)
	ast.Inspect(fn, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pkg, rng) {
			return true
		}
		checkMapRangeBody(pkg, r, rng, sorted, where)
		return true
	})
}

// sortedExprs collects the (printed) first arguments of every sort.* and
// slices.* call in fn: slices that get sorted somewhere in the function
// are exempt from the append rule.
func sortedExprs(pkg *Package, fn *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices") {
			out[types.ExprString(call.Args[0])] = true
		}
		return true
	})
	return out
}

func isMapRange(pkg *Package, rng *ast.RangeStmt) bool {
	tv, ok := pkg.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func checkMapRangeBody(pkg *Package, r *Reporter, rng *ast.RangeStmt, sorted map[string]bool, where string) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.RangeStmt:
			if st != rng && isMapRange(pkg, st) {
				return false // nested map range reports its own findings
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pkg, r, rng, st, sorted, where)
		case *ast.CallExpr:
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok && isJournalWrite(pkg, sel) {
				r.Reportf(st.Pos(),
					"journal write %s.%s inside map iteration%s: WAL record order becomes nondeterministic, breaking replay",
					types.ExprString(sel.X), sel.Sel.Name, where)
			}
		}
		return true
	})
}

func checkMapRangeAssign(pkg *Package, r *Reporter, rng *ast.RangeStmt, st *ast.AssignStmt, sorted map[string]bool, where string) {
	// x = append(x, ...) with x from outside the loop.
	if st.Tok == token.ASSIGN && len(st.Rhs) == 1 {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) > 0 {
				target := types.ExprString(call.Args[0])
				if target == types.ExprString(st.Lhs[0]) && declaredOutside(pkg, st.Lhs[0], rng) && !sorted[target] {
					r.Reportf(st.Pos(),
						"append to %s inside map iteration%s: element order is nondeterministic (collect then sort, or iterate sorted keys)",
						target, where)
				}
			}
		}
	}
	// Float compound accumulation: sum += v and friends.
	switch st.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		lhs := st.Lhs[0]
		tv, ok := pkg.Info.Types[lhs]
		if !ok || tv.Type == nil {
			return
		}
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			if declaredOutside(pkg, lhs, rng) {
				r.Reportf(st.Pos(),
					"float accumulation into %s inside map iteration%s: float addition is order-dependent, so the result is not bit-deterministic",
					types.ExprString(lhs), where)
			}
		}
	}
}

// declaredOutside reports whether the assignment target lives outside the
// range statement (a selector or index rooted outside, or an ident whose
// declaration precedes the loop). Targets created inside the loop body are
// per-iteration and harmless.
func declaredOutside(pkg *Package, expr ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := expr.(type) {
		case *ast.SelectorExpr:
			expr = x.X
			continue
		case *ast.IndexExpr:
			expr = x.X
			continue
		case *ast.StarExpr:
			expr = x.X
			continue
		case *ast.Ident:
			obj := pkg.Info.Uses[x]
			if obj == nil {
				obj = pkg.Info.Defs[x]
			}
			if obj == nil {
				return true
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		default:
			return true
		}
	}
}

// isJournalWrite reports whether sel is a WAL write: one of the
// journalWriteMethods on a type named Journal, or one of the aggregator's
// coreJournalWrites (matched by name so fixtures and future wrappers are
// covered without importing the journal package here).
func isJournalWrite(pkg *Package, sel *ast.SelectorExpr) bool {
	if coreJournalWrites[sel.Sel.Name] {
		return true
	}
	if !journalWriteMethods[sel.Sel.Name] {
		return false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Journal"
}
