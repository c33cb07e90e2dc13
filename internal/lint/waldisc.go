package lint

// waldisc enforces the WAL-before-ack protocol on the aggregator by
// checking the rule internal/core keeps by construction (core/recover.go):
// apply is the only writer of durable state, and commitLocked appends a
// record before it applies it. Replay runs apply and nothing else, so a
// durable write anywhere else is state a restarted node does not rebuild,
// however well a journal append guards it; and an apply that runs before
// its append acknowledges a change a crash can lose. Three syntactic checks
// over deta/internal/core:
//
//   - writers: an assignment, inc/dec or delete on a durable field appears
//     only in a sanctioned writer (a walCallers key: apply and its helper
//     roundLocked) or on the replay side (walExemptFuncs);
//   - callers: a sanctioned writer is named only in the functions
//     walCallers lists for it; a function literal counts as the
//     declaration it is written in;
//   - order: in commitLocked, every call to apply sits in a later top-level
//     statement than an appendLocked call whose error result is bound.
//
// Writes through aliased maps (`m := a.parties; m[p] = true`) are out of
// scope: no such shape occurs outside replay.

import (
	"go/ast"
	"go/types"
	"slices"
)

type WalDisc struct{}

func (WalDisc) Name() string { return "waldisc" }
func (WalDisc) Doc() string {
	return "durable aggregator state is written only by apply, called only by replay and by commitLocked after its checked journal append (WAL-before-ack)"
}

// walDurableFields names, per owner type, the fields replay rebuilds.
var walDurableFields = map[string]map[string]bool{
	"AggregatorNode": {"parties": true, "rounds": true, "evicted": true, "quorum": true, "retention": true, "lastAggregated": true},
	"roundState":     {"uploads": true, "aggregated": true},
}

// walCallers maps each sanctioned writer of durable state to the only
// functions that may call it.
var walCallers = map[string][]string{
	"apply":       {"commitLocked", "RecoverAggregatorNode"},
	"roundLocked": {"apply"},
}

// walExemptFuncs are the replay side of the protocol: they write state
// from journal records, so their writes are the log's, not new ones.
var walExemptFuncs = map[string]bool{
	"RecoverAggregatorNode": true,
	"readBackLocked":        true,
}

// walCommit is the log-then-apply seam; walAppend is its journal append.
const walCommit, walAppend = "commitLocked", "appendLocked"

func (WalDisc) Run(pkg *Package, r *Reporter) {
	if pkg.Path != "deta/internal/core" {
		return
	}
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			_, writer := walCallers[name]
			write := func(e ast.Expr, verb string) {
				if desc, ok := walDurableTarget(pkg, e); ok && !writer && !walExemptFuncs[name] {
					r.Reportf(e.Pos(), "%s %s in %s: only apply writes durable state, and replay runs only apply (WAL-before-ack)", verb, desc, name)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range v.Lhs {
						write(lhs, "write to")
					}
				case *ast.IncDecStmt:
					write(v.X, "write to")
				case *ast.CallExpr:
					if id, ok := unparen(v.Fun).(*ast.Ident); ok && id.Name == "delete" && len(v.Args) == 2 {
						write(v.Args[0], "delete from")
					}
				case *ast.Ident:
					fn, ok := pkg.Info.Uses[v].(*types.Func)
					if !ok || fn.Pkg() != pkg.Types {
						break
					}
					if callers, ok := walCallers[fn.Name()]; ok && !slices.Contains(callers, name) {
						r.Reportf(v.Pos(), "%s used in %s: only %v may call it (WAL-before-ack)", fn.Name(), name, callers)
					}
				}
				return true
			})
			if name == walCommit {
				walCheckOrder(pkg, fd, r)
			}
		}
	}
}

// walCheckOrder reports each call to apply in commitLocked that no
// earlier top-level statement precedes with a bound appendLocked result.
func walCheckOrder(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	appended := false
	for _, st := range fd.Body.List {
		if !appended {
			ast.Inspect(st, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && walCallee(pkg, call) == "apply" {
					r.Reportf(call.Pos(), "apply in %s is not preceded by a checked %s: a crash can lose an acknowledged change (WAL-before-ack)", walCommit, walAppend)
				}
				return true
			})
		}
		appended = appended || walBoundAppend(pkg, st)
	}
}

// walBoundAppend reports whether st (or an if statement's init) assigns
// an appendLocked call's error result to something other than blank.
func walBoundAppend(pkg *Package, st ast.Stmt) bool {
	if is, ok := st.(*ast.IfStmt); ok && is.Init != nil {
		st = is.Init
	}
	as, ok := st.(*ast.AssignStmt)
	if !ok || len(as.Rhs) != 1 {
		return false
	}
	if call, ok := unparen(as.Rhs[0]).(*ast.CallExpr); !ok || walCallee(pkg, call) != walAppend {
		return false
	}
	return slices.ContainsFunc(as.Lhs, func(lhs ast.Expr) bool {
		id, ok := unparen(lhs).(*ast.Ident)
		return !ok || id.Name != "_"
	})
}

// walCallee names the package-local function call invokes, or "".
func walCallee(pkg *Package, call *ast.CallExpr) string {
	if fn := calleeFunc(pkg, call); fn != nil && fn.Pkg() == pkg.Types {
		return fn.Name()
	}
	return ""
}

// walDurableTarget resolves an lvalue (or delete target) to a durable
// field, walking through index/deref wrappers: `a.rounds[r] = rs` and
// `rs.uploads[p] = u` both land on their owning field selection.
func walDurableTarget(pkg *Package, e ast.Expr) (desc string, ok bool) {
	for {
		switch x := unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			s, selOK := pkg.Info.Selections[x]
			if !selOK {
				return "", false
			}
			named, namedOK := derefType(s.Recv()).(*types.Named)
			if !namedOK || !walDurableFields[named.Obj().Name()][x.Sel.Name] {
				return "", false
			}
			return named.Obj().Name() + "." + x.Sel.Name, true
		default:
			return "", false
		}
	}
}
