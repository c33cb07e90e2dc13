package lint

// CtxFlow is interprocedural ctxplumb: ctxplumb checks that a context
// parameter, where present, is first and never minted internally;
// CtxFlow checks that functions which NEED one have one. An exported
// transport/core function that transitively performs network I/O on its
// synchronous path but takes no context.Context cannot be cancelled or
// deadlined by its caller — the exact hung-party failure ctx plumbing
// exists to prevent.
//
// Deliberate exclusions:
//   - goroutine bodies and function literals (the caller does not wait);
//   - interface- and lifecycle-pinned method names (Read, Write, Close,
//     Accept, Serve, ReadFrom, WriteTo): their signatures are fixed by
//     io/net contracts and they are bounded by Close, mirroring
//     net/http.Server.Serve;
//   - the WAL (deta/internal/journal): local fsync is not cancellable in
//     Go, and the commit-before-ack path must not be (DESIGN.md §9).
import (
	"go/ast"
)

type CtxFlow struct{ ix *moduleIndex }

func (*CtxFlow) Name() string { return "ctxflow" }
func (*CtxFlow) Doc() string {
	return "exported transport/core functions that transitively do network I/O must take a context.Context"
}

var ctxFlowScope = []string{
	"deta/internal/transport",
	"deta/internal/core",
}

// ctxFlowExemptNames are signature-pinned by io/net interface contracts.
var ctxFlowExemptNames = map[string]bool{
	"Read": true, "Write": true, "Close": true, "Accept": true,
	"Serve": true, "ReadFrom": true, "WriteTo": true,
}

func (a *CtxFlow) Prepare(ix *moduleIndex) { a.ix = ix }

func (a *CtxFlow) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, ctxFlowScope...) {
		return
	}
	for _, u := range a.ix.units[pkg] {
		if u.decl == nil || u.obj == nil || !exported(u.decl) {
			continue
		}
		if ctxFlowExemptNames[u.decl.Name.Name] {
			continue
		}
		if hasCtxParam(pkg, u.decl) {
			continue
		}
		info := a.ix.io[u.obj]
		if info.kind&ioNet == 0 {
			continue
		}
		r.Reportf(u.decl.Name.Pos(),
			"%s transitively performs network I/O (via %s) but takes no context.Context: callers cannot bound or cancel it",
			fnDisplayName(u), info.via)
	}
}

// hasCtxParam reports whether any parameter is a context.Context
// (position is ctxplumb's business, presence is ours).
func hasCtxParam(pkg *Package, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, field := range fn.Type.Params.List {
		if isContextType(pkg, field.Type) {
			return true
		}
	}
	return false
}
