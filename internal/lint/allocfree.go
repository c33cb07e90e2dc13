package lint

// AllocFree enforces allocation discipline on functions annotated with a
// `//perf:hotpath` doc-comment line. The zero-copy data plane (pooled
// tensor buffers, the fixed-layout wire codec, the fused transform) won
// its numbers by eliminating per-message allocations; this analyzer pins
// that property statically so a careless edit cannot quietly reintroduce
// them.
//
// Inside an annotated function's body — including function literals (the
// parallel.For closures ARE the hot loops) but excluding goroutine
// spawns — these are findings:
//
//   - make / new / append (append may grow its backing array)
//   - map writes (insertion can allocate buckets)
//   - defer inside a loop (each iteration heap-allocates a defer record)
//   - interface boxing: passing a concrete non-pointer-shaped value
//     (int, string, struct, slice, ...) to an interface-typed parameter
//   - a synchronous call to an unannotated module function whose
//     alloc-effect summary (computeAllocFX, over call edges at any depth)
//     says it may allocate
//
// Trust boundaries: a call to another `//perf:hotpath` function is clean
// (its own body is checked); deta/internal/parallel (amortized worker
// pool) and deta/internal/journal (the WAL durability barrier) are exempt
// callees; fmt.Errorf / errors.New are exempt because error construction
// is cold-path by contract — if an error is being built, the fast path
// has already been abandoned.
//
// Sanctioned allocations inside a hot region (a pool-miss fallback, a
// bounded cache insert) are acknowledged with //lint:ignore allocfree and
// a reason, keeping the discipline auditable.
//
// The annotation itself is checked: a `//perf:hotpath` comment that is
// not the doc comment of a function declaration with a body is a finding
// (a floating or misattached annotation silently protects nothing).
import (
	"go/ast"
	"go/types"
	"strings"
)

const hotpathDirective = "//perf:hotpath"

type AllocFree struct {
	ix    *moduleIndex
	hot   map[*types.Func]bool
	alloc map[*types.Func]allocInfo
}

// allocInfo summarizes whether a function may allocate on its synchronous
// path and the first witness for the report message.
type allocInfo struct {
	may bool
	via string
}

func (*AllocFree) Name() string { return "allocfree" }
func (*AllocFree) Doc() string {
	return "flag allocations (make/new/append/map writes/boxing/defer-in-loop) in //perf:hotpath regions and their callees"
}

// isHotpathComment matches the directive, tolerating a trailing comment
// (fixtures put want-markers on the same line).
func isHotpathComment(text string) bool {
	rest, ok := strings.CutPrefix(text, hotpathDirective)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t')
}

// hotpathAnnotated reports whether a function declaration carries the
// directive in its doc comment.
func hotpathAnnotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if isHotpathComment(c.Text) {
			return true
		}
	}
	return false
}

// Prepare collects the module-wide annotated set and the alloc-effect
// summary.
func (a *AllocFree) Prepare(ix *moduleIndex) {
	a.ix = ix
	a.hot = make(map[*types.Func]bool)
	for _, u := range ix.decls {
		if hotpathAnnotated(u.decl) {
			a.hot[u.obj] = true
		}
	}
	a.alloc = computeAllocFX(ix)
}

func (a *AllocFree) Run(pkg *Package, r *Reporter) {
	a.checkAnnotations(pkg, r)
	for _, u := range a.ix.units[pkg] {
		if a.hot[u.obj] {
			a.checkRegion(u, r)
		}
	}
}

// checkAnnotations flags malformed //perf:hotpath directives: not the doc
// comment of a function declaration, or on a declaration with no body
// (nothing to check, so nothing is protected).
func (a *AllocFree) checkAnnotations(pkg *Package, r *Reporter) {
	for _, file := range pkg.Files {
		valid := make(map[*ast.Comment]bool)
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if !isHotpathComment(c.Text) {
					continue
				}
				if fd.Body == nil {
					r.Reportf(c.Pos(), "malformed //perf:hotpath: %s has no body to check; annotate the implementation instead", fd.Name.Name)
				}
				valid[c] = true
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if isHotpathComment(c.Text) && !valid[c] {
					r.Reportf(c.Pos(), "malformed //perf:hotpath: the directive must be the doc comment of a function declaration")
				}
			}
		}
	}
}

// checkRegion walks one annotated function body and reports every
// allocation construct. Function literals are part of the region (the
// hot loops live in parallel.For closures); goroutine spawns are not.
func (a *AllocFree) checkRegion(u *funcUnit, r *Reporter) {
	pkg := u.pkg
	loopDepth := 0
	var stack []ast.Node
	ast.Inspect(u.decl.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			return true
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false // not pushed: Inspect sends no pop for pruned nodes
		case *ast.DeferStmt:
			if loopDepth > 0 {
				r.Reportf(x.Pos(), "defer inside a loop on a //perf:hotpath function: each iteration heap-allocates a defer record")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				a.checkMapWrite(pkg, lhs, r)
			}
		case *ast.IncDecStmt:
			a.checkMapWrite(pkg, x.X, r)
		case *ast.CallExpr:
			a.checkCall(pkg, x, r)
		}
		stack = append(stack, n)
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		}
		return true
	})
}

func (a *AllocFree) checkMapWrite(pkg *Package, lhs ast.Expr, r *Reporter) {
	idx, ok := unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	if tv, ok := pkg.Info.Types[idx.X]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			r.Reportf(lhs.Pos(), "map write on a //perf:hotpath function: insertion can allocate buckets")
		}
	}
}

// checkCall classifies one call inside a hot region: allocating builtins,
// allocating module callees, and interface boxing of arguments.
func (a *AllocFree) checkCall(pkg *Package, call *ast.CallExpr, r *Reporter) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				r.Reportf(call.Pos(), "make on a //perf:hotpath function allocates")
			case "new":
				r.Reportf(call.Pos(), "new on a //perf:hotpath function allocates")
			case "append":
				r.Reportf(call.Pos(), "append on a //perf:hotpath function may grow its backing array")
			}
			return
		}
	}
	callee := calleeFunc(pkg, call)
	if allocExemptCallee(callee) {
		return // cold-path error construction by contract
	}
	if callee != nil && callee.Pkg() != nil && !a.hot[callee] &&
		strings.HasPrefix(callee.Pkg().Path(), "deta/") && !allocExemptPkg(callee.Pkg().Path()) {
		if info := a.alloc[callee]; info.may {
			r.Reportf(call.Pos(), "call to %s on a //perf:hotpath function may allocate (%s)", callee.Name(), info.via)
		}
	}
	a.checkBoxing(pkg, call, r)
}

// checkBoxing flags concrete non-pointer-shaped arguments passed to
// interface-typed parameters: the conversion heap-allocates. Pointers,
// channels, maps, and funcs are pointer-shaped and store directly in the
// interface word; nil and interface-typed arguments convert for free.
func (a *AllocFree) checkBoxing(pkg *Package, call *ast.CallExpr, r *Reporter) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return // builtin, conversion, or type expression
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		t := at.Type
		if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Kind() == types.UntypedNil {
			continue
		}
		switch t.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.TypeParam:
			continue
		}
		if b, isBasic := t.Underlying().(*types.Basic); isBasic && b.Kind() == types.UnsafePointer {
			continue
		}
		r.Reportf(arg.Pos(), "interface boxing on a //perf:hotpath function: %s argument converts to %s and allocates",
			types.TypeString(t, types.RelativeTo(pkg.Types)), types.TypeString(pt, types.RelativeTo(pkg.Types)))
	}
}

func allocExemptCallee(f *types.Func) bool {
	if f == nil || f.Pkg() == nil {
		return false
	}
	switch f.Pkg().Path() + "." + f.Name() {
	case "fmt.Errorf", "errors.New":
		return true
	}
	return false
}

// allocExemptPkg names module packages whose calls are trusted on hot
// paths: the parallel worker pool (its bookkeeping is amortized across
// the chunked loop it hosts) and the WAL journal (the durability barrier
// is the sanctioned cost the hot upload path exists to pay).
func allocExemptPkg(path string) bool {
	return path == journalPath || path == "deta/internal/parallel"
}

// computeAllocFX summarizes which module functions may allocate on their
// synchronous path: a direct make/new/append/map-write site (the first
// one is the witness), else a callee that may. Literal bodies count (they
// run on the caller's path); goroutine spawns do not.
func computeAllocFX(ix *moduleIndex) map[*types.Func]allocInfo {
	return summarize(ix, "allocation", ix.decls, func(u *funcUnit, sum map[*types.Func]allocInfo) allocInfo {
		var info allocInfo
		var callees []*types.Func
		ast.Inspect(u.decl.Body, func(n ast.Node) bool {
			if _, isGo := n.(*ast.GoStmt); isGo {
				return false
			}
			switch x := n.(type) {
			case *ast.CallExpr:
				if id, ok := unparen(x.Fun).(*ast.Ident); ok {
					if b, isBuiltin := u.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						switch b.Name() {
						case "make", "new", "append":
							if !info.may {
								info = allocInfo{may: true, via: b.Name() + " in " + fnDisplayName(u)}
							}
						}
						return true
					}
				}
				if f := calleeFunc(u.pkg, x); f != nil && f.Pkg() != nil &&
					strings.HasPrefix(f.Pkg().Path(), "deta/") && !allocExemptPkg(f.Pkg().Path()) {
					callees = append(callees, f)
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					if idx, ok := unparen(lhs).(*ast.IndexExpr); ok {
						if tv, ok := u.pkg.Info.Types[idx.X]; ok {
							if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !info.may {
								info = allocInfo{may: true, via: "map write in " + fnDisplayName(u)}
							}
						}
					}
				}
			}
			return true
		})
		for _, f := range callees {
			if !info.may && sum[f].may {
				info = allocInfo{may: true, via: "via " + f.Name()}
			}
		}
		return info
	}, eq[allocInfo])
}
