package lint

// LockRegion flags network or disk I/O performed while a mutex is held in
// internal/core. It replaces the old syntactic lockio analyzer with real
// CFG reachability: held-lock sets are propagated through the
// control-flow graph (may-analysis — a lock held on SOME path into a
// statement counts), so conditional unlocks, early returns, and loops are
// modeled instead of approximated. Two interprocedural refinements come
// from the call-graph summaries:
//
//   - helper-held locks: a call to a function whose net effect is
//     acquiring (or releasing) a lock class — at any helper depth —
//     updates the held set at the call site;
//   - transitive I/O: a call to a module function that performs network
//     or disk I/O anywhere on its synchronous path is itself a sink.
//
// Held locks are keyed by class ("core.peer.mu"), the same class-keyed
// effects lockorder reads; a local mutex has no class and is keyed by its
// printed expression. Two instances of one class are one lock here.
//
// The WAL's commit-before-ack is the sanctioned exception: writes through
// deta/internal/journal — direct or transitive — never count as I/O here
// (DESIGN.md §9 requires the journal append to happen under the round
// lock, before the ack is sent). Everything else that blocks on a peer's
// disk or network while holding a core mutex convoys every concurrent
// caller and is reported.
import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type LockRegion struct{ ix *moduleIndex }

func (*LockRegion) Name() string { return "lockregion" }
func (*LockRegion) Doc() string {
	return "flag network/disk I/O on any CFG path holding a mutex in internal/core (WAL journal exempt)"
}

func (a *LockRegion) Prepare(ix *moduleIndex) { a.ix = ix }

func (a *LockRegion) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, "deta/internal/core") {
		return
	}
	for _, u := range a.ix.units[pkg] {
		a.checkUnit(u, r)
	}
}

// lockFact is the dataflow fact: held lock -> position of the acquisition
// that put it in the held set.
type lockFact = fact[string, token.Pos]

// lockKey names a held lock: its class, or for a local mutex its printed
// expression.
func lockKey(pkg *Package, mu ast.Expr) string {
	if c := lockClass(pkg, mu); c != "" {
		return c
	}
	return types.ExprString(mu)
}

func (a *LockRegion) checkUnit(u *funcUnit, r *Reporter) {
	c := buildCFG(u.body())
	transfer := func(f lockFact, n ast.Node) { heldTransfer(u.pkg, a.ix.classFX, lockKey, f, n) }
	in := solveForward(c, lockFact{}, transfer)
	for _, blk := range reachableBlocks(c, in) {
		f := cloneFact(in[blk])
		for _, n := range blk.nodes {
			if len(f) > 0 {
				a.checkNode(u.pkg, f, n, r)
			}
			transfer(f, n)
		}
	}
}

// checkNode reports I/O calls in n that execute with a non-empty held
// set. Goroutine spawns and deferred calls are skipped: the former run
// without the caller's lock, the latter at exit where inline analysis of
// the held set no longer applies.
func (a *LockRegion) checkNode(pkg *Package, f lockFact, n ast.Node, r *Reporter) {
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return
	}
	inspectSyncCalls(n, func(call *ast.CallExpr) {
		desc := a.ioCallDesc(pkg, call)
		if desc == "" {
			return
		}
		r.Reportf(call.Pos(),
			"%s while holding %s: I/O under a core mutex convoys every concurrent caller behind one peer's disk/network latency",
			desc, strings.Join(sortedFactKeys(f), ", "))
	})
}

// ioCallDesc classifies a call as an I/O sink: a direct primitive or a
// module function whose summary says it performs I/O on its sync path.
func (a *LockRegion) ioCallDesc(pkg *Package, call *ast.CallExpr) string {
	if k, via := ioPrimitive(pkg, call); k != 0 {
		return via + " " + k.String() + " I/O"
	}
	callee := calleeFunc(pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return ""
	}
	if callee.Pkg().Path() == journalPath {
		return "" // WAL barrier: commit-before-ack is sanctioned under the lock
	}
	if info := a.ix.io[callee]; info.kind != 0 {
		return "call to " + callee.Name() + " (" + info.kind.String() + " I/O via " + info.via + ")"
	}
	return ""
}

// inspectSyncCalls visits the call expressions under n that execute
// synchronously at this program point: nested goroutine spawns, deferred
// calls, and function-literal bodies are skipped.
func inspectSyncCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.GoStmt, *ast.DeferStmt, *ast.FuncLit:
			return false
		case *ast.CallExpr:
			visit(c)
		}
		return true
	})
}
