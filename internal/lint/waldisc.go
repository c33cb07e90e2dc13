package lint

// waldisc enforces the WAL-before-ack protocol on the aggregator: a crash
// between acknowledging state and making it durable would let recovery
// resurrect a node that remembers less than its peers were told, so every
// mutation of AggregatorNode durable state must already be covered by a
// journal append on EVERY control-flow path reaching it. "Every path" is
// a must-property the forward may-solver cannot express; this analyzer is
// the first client of dom.go's dominator tree (an append guards a
// mutation iff it precedes it in the same block or strictly dominates the
// mutation's block) and of mustflow.go's backward must-solver (an
// unexported helper that appends on every path through its body is a
// guard wrapper at its call sites).
//
// Two guard strengths, matching the recovery protocol:
//
//   - strength 2, "checked durable append": appendLocked or
//     Journal.Append with the returned error consumed. Required for the
//     payload-bearing state replay rebuilds record-by-record — round
//     creation, the per-party uploads and the fused vector.
//   - strength 1, any journal write (Compact, or an unchecked strength-2
//     call). Enough for membership flags and counters that a compaction
//     re-captures, and for ALL deletes: dropping state early at worst
//     forgets what replay can rebuild, it never acknowledges phantom data
//     (the rollback `delete` after a failed append is the canonical
//     guarded delete).
//
// Mutations reached through unexported helpers propagate to call sites via
// summaries, at any helper depth, so `a.admit(p)` is as visible as
// `a.parties[p] = true`.
// Findings are reported only in exported functions — the package's ack
// surface; unexported functions contribute summaries instead. Replay's
// entry point (RecoverAggregatorNode) is exempt: it mutates state FROM the
// journal. The aggregator's one state writer, apply, is deliberately not:
// its summary is guarded inside commitLocked, which appends first, and
// surfaces at any other call. Mutations through aliased maps
// (`m := a.parties; m[p] = true`) and inside function literals are out of
// scope — neither shape occurs in the tree.

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

type WalDisc struct{ ix *moduleIndex }

func (*WalDisc) Name() string { return "waldisc" }
func (*WalDisc) Doc() string {
	return "require a dominating journal append before every durable aggregator state mutation (WAL-before-ack)"
}

// walDurableFields maps owner type -> field -> append strength required
// for a write (deletes always need only strength 1; see package comment).
var walDurableFields = map[string]map[string]int{
	"AggregatorNode": {
		"parties":        1,
		"rounds":         2,
		"evicted":        1,
		"quorum":         1,
		"retention":      1,
		"lastAggregated": 1,
	},
	"roundState": {
		"uploads":    2,
		"aggregated": 2,
	},
}

// walExemptFuncs are the replay side of the protocol: they mutate durable
// state from journal records, so demanding an append first would be
// circular.
var walExemptFuncs = map[string]bool{
	"RecoverAggregatorNode": true,
}

// walGuardNames are the aggregator's journal-append helpers, matched by
// name, with the strength a checked call confers.
var walGuardNames = map[string]int{
	"appendLocked": 2,
}

// walMut is one durable-state mutation: the strength its guard needs, a
// human-readable target (with the helper chain when propagated), and the
// position the finding anchors to.
type walMut struct {
	need int
	desc string
	pos  token.Pos
}

type walFunc struct {
	c *cfg
	d *domTree
}

func (a *WalDisc) Prepare(ix *moduleIndex) { a.ix = ix }

func (a *WalDisc) Run(pkg *Package, r *Reporter) {
	if pkg.Path != "deta/internal/core" {
		return
	}
	fns := map[*funcUnit]*walFunc{}
	var units, helpers []*funcUnit
	for _, u := range a.ix.units[pkg] {
		if u.obj == nil || walExemptFuncs[u.decl.Name.Name] {
			continue
		}
		c := buildCFG(u.decl.Body)
		fns[u] = &walFunc{c: c, d: buildDomTree(c)}
		units = append(units, u)
		if !exported(u.decl) {
			helpers = append(helpers, u)
		}
	}

	// Wrapper strengths: a function that appends (at strength s) on every
	// path through its body transfers an s-strength guard to call sites,
	// and wrappers may call wrappers.
	ws := summarize(a.ix, "waldisc wrapper", units, func(u *funcUnit, ws map[*types.Func]int) int {
		return walWrapperStrength(pkg, fns[u], ws)
	}, eq[int])

	// Unguarded-mutation summaries for unexported helpers: a helper's
	// unguarded mutations surface at its call sites (where a dominating
	// append CAN still guard them).
	sums := summarize(a.ix, "waldisc mutation", helpers, func(u *funcUnit, sums map[*types.Func][]walMut) []walMut {
		return walUnguarded(pkg, fns[u], ws, sums)
	}, slices.Equal[[]walMut])

	for _, u := range units {
		if !exported(u.decl) {
			continue
		}
		for _, m := range walUnguarded(pkg, fns[u], ws, sums) {
			guard := "a journal append"
			if m.need >= 2 {
				guard = "a checked durable journal append"
			}
			r.Reportf(m.pos,
				"durable state write to %s is not preceded by %s on every path to it (WAL-before-ack)",
				m.desc, guard)
		}
	}
}

// walUnguarded returns wf's durable mutations (own and propagated from
// helper summaries) that no append of sufficient strength guards: same
// block at an earlier-or-equal node, or a strictly dominating block.
func walUnguarded(pkg *Package, wf *walFunc, ws map[*types.Func]int, sums map[*types.Func][]walMut) []walMut {
	type walAppend struct {
		blk      *cfgBlock
		idx      int
		strength int
	}
	var appends []walAppend
	for _, blk := range wf.c.blocks {
		if !wf.d.reachable(blk) {
			continue
		}
		for i, n := range blk.nodes {
			if s := walAppendStrength(pkg, n, ws); s > 0 {
				appends = append(appends, walAppend{blk, i, s})
			}
		}
	}
	var out []walMut
	for _, blk := range wf.c.blocks {
		if !wf.d.reachable(blk) {
			continue
		}
		for i, n := range blk.nodes {
			for _, m := range walMutsInNode(pkg, n, sums) {
				guarded := false
				for _, ap := range appends {
					if ap.strength < m.need {
						continue
					}
					if (ap.blk == blk && ap.idx <= i) || (ap.blk != blk && wf.d.dominates(ap.blk, blk)) {
						guarded = true
						break
					}
				}
				if !guarded {
					out = append(out, m)
				}
			}
		}
	}
	return out
}

// walWrapperStrength classifies wf as a guard wrapper: 2 if a checked
// durable append runs on every entry-to-exit path, 1 if any append does,
// 0 otherwise.
func walWrapperStrength(pkg *Package, wf *walFunc, ws map[*types.Func]int) int {
	if mustOnEveryPath(wf.c, func(n ast.Node) bool { return walAppendStrength(pkg, n, ws) >= 2 }) {
		return 2
	}
	if mustOnEveryPath(wf.c, func(n ast.Node) bool { return walAppendStrength(pkg, n, ws) >= 1 }) {
		return 1
	}
	return 0
}

// walAppendStrength returns the strongest append event inside one CFG
// node: 2 for a checked appendLocked / Journal.Append (or a call to
// a strength-2 wrapper, itself checked), 1 for Compact and unchecked
// strength-2 calls, 0 for none. Appends inside defer/go run
// after (or concurrently with) the surrounding statements, so they guard
// nothing; function literals are their own units.
func walAppendStrength(pkg *Package, n ast.Node, ws map[*types.Func]int) int {
	best := 0
	walInspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			s := walCallAppendStrength(pkg, v, ws)
			if s >= 2 && !walCallChecked(pkg, n, v) {
				s = 1
			}
			if s > best {
				best = s
			}
		}
		return true
	})
	return best
}

func walCallAppendStrength(pkg *Package, call *ast.CallExpr, ws map[*types.Func]int) int {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := walGuardNames[sel.Sel.Name]; ok {
			return s
		}
		if name := sel.Sel.Name; (name == "Append" || name == "Compact") && isJournalWrite(pkg, sel) {
			if name == "Append" {
				return 2
			}
			return 1
		}
	}
	if fn := calleeFunc(pkg, call); fn != nil {
		return ws[fn]
	}
	return 0
}

// walCallChecked reports whether call's result is consumed within node n.
// A bare expression statement or an all-blank assignment discards the
// error, demoting a durable append to best-effort; a callee with no
// results has nothing to check.
func walCallChecked(pkg *Package, n ast.Node, call *ast.CallExpr) bool {
	if fn := calleeFunc(pkg, call); fn != nil {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Results().Len() == 0 {
			return true
		}
	}
	switch st := n.(type) {
	case *ast.ExprStmt:
		if unparen(st.X) == call {
			return false
		}
	case *ast.AssignStmt:
		if len(st.Rhs) == 1 && unparen(st.Rhs[0]) == call {
			allBlank := true
			for _, lhs := range st.Lhs {
				if id, ok := unparen(lhs).(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
					break
				}
			}
			if allBlank {
				return false
			}
		}
	}
	return true
}

// walMutsInNode extracts the durable mutations inside one CFG node:
// assignments and inc/dec through durable fields, `delete` on durable
// maps, and calls to helpers with unguarded-mutation summaries (injected
// at the call position, tagged with the helper chain).
func walMutsInNode(pkg *Package, n ast.Node, sums map[*types.Func][]walMut) []walMut {
	var out []walMut
	walInspect(n, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if need, desc, ok := walDurableTarget(pkg, lhs); ok {
					out = append(out, walMut{need: need, desc: desc, pos: lhs.Pos()})
				}
			}
		case *ast.IncDecStmt:
			if need, desc, ok := walDurableTarget(pkg, v.X); ok {
				out = append(out, walMut{need: need, desc: desc, pos: v.X.Pos()})
			}
		case *ast.CallExpr:
			if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "delete" && len(v.Args) == 2 {
				if _, desc, ok := walDurableTarget(pkg, v.Args[0]); ok {
					out = append(out, walMut{need: 1, desc: "delete from " + desc, pos: v.Pos()})
				}
				return true
			}
			if fn := calleeFunc(pkg, v); fn != nil {
				for _, m := range sums[fn] {
					out = append(out, walMut{need: m.need, desc: m.desc + " (via " + fn.Name() + ")", pos: v.Pos()})
				}
			}
		}
		return true
	})
	return out
}

// walInspect is ast.Inspect restricted to the parts of a CFG node that
// execute AT that node: a RangeStmt lives in its loop-head block but
// carries its whole Body subtree, which the CFG already splits into body
// blocks — visiting it here would misattribute every body event to the
// head (and double-count it).
func walInspect(n ast.Node, visit func(ast.Node) bool) {
	if rng, ok := n.(*ast.RangeStmt); ok {
		ast.Inspect(rng.X, visit)
		if rng.Tok == token.ASSIGN {
			if rng.Key != nil {
				ast.Inspect(rng.Key, visit)
			}
			if rng.Value != nil {
				ast.Inspect(rng.Value, visit)
			}
		}
		return
	}
	ast.Inspect(n, visit)
}

// walDurableTarget resolves an lvalue (or delete target) to a durable
// field, walking through index/deref wrappers: `a.rounds[r] = rs` and
// `rs.uploads[p] = u` both land on their owning field selection.
func walDurableTarget(pkg *Package, e ast.Expr) (need int, desc string, ok bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			s, selOK := pkg.Info.Selections[x]
			if !selOK {
				return 0, "", false
			}
			named, namedOK := derefType(s.Recv()).(*types.Named)
			if !namedOK {
				return 0, "", false
			}
			fields, tOK := walDurableFields[named.Obj().Name()]
			if !tOK {
				return 0, "", false
			}
			n, fOK := fields[x.Sel.Name]
			if !fOK {
				return 0, "", false
			}
			return n, named.Obj().Name() + "." + x.Sel.Name, true
		default:
			return 0, "", false
		}
	}
}
