package lint

// GoLeak flags `go` statements that spawn goroutines which can never
// exit: bodies that block forever on channel operations with no escape
// edge. A leaked goroutine on an aggregator is a slow liveness hole — it
// pins its stack, its ticker, and whatever the closure captures, forever.
//
// Two body shapes are recognized, chosen for near-zero false positives on
// real code rather than completeness:
//
//   - an infinite `for` (no condition) that performs a blocking channel
//     operation — a select with no default, a send, a receive, a range
//     over a channel — with no way out of the loop: no return, no
//     `break`/`goto` targeting it, no panic/os.Exit-style terminator.
//     The canonical leak is `for { select { ... } }` with no
//     `<-ctx.Done(): return` case;
//   - a `for range` over a time.Ticker channel (or time.Tick result)
//     with no escape: ticker channels are never closed, so the range can
//     never end.
//
// A plain `for x := range ch` over an ordinary channel is deliberately
// NOT flagged: the close-driven worker loop (internal/parallel's pool
// workers) is a correct, idiomatic shape whose exit is the channel close.
//
// Blocking is a property of the spawned function, so it propagates: a
// wrapper whose body unconditionally (top-level, not nested in a branch)
// calls a forever-blocking function blocks forever itself, at any depth.
// Spawns through bare function values (e.g. a worker pool invoking a
// func() parameter) are unresolvable and skipped.
import (
	"go/ast"
	"go/token"
	"go/types"
)

type GoLeak struct {
	ix      *moduleIndex
	nodeWhy map[ast.Node]string // unit node (decl or literal) -> why it blocks forever
	objWhy  map[*types.Func]string
}

func (*GoLeak) Name() string { return "goleak" }
func (*GoLeak) Doc() string {
	return "flag goroutines that can block forever on channel operations with no escape edge (goroutine leaks)"
}

// Prepare computes the blocks-forever summary over every function body in
// the module: a body blocks on its own, or through an unconditional
// top-level call to a blocker. Conditional calls stay unflagged (may-block
// is too noisy for a leak report). A unit's first reason sticks.
func (a *GoLeak) Prepare(ix *moduleIndex) {
	a.ix = ix
	a.nodeWhy = make(map[ast.Node]string)
	a.objWhy = make(map[*types.Func]string)
	step := func(u *funcUnit) []*funcUnit {
		if a.nodeWhy[u.node()] != "" {
			return nil
		}
		why := directBlocksForever(u)
		for i := 0; why == "" && i < len(u.body().List); i++ {
			es, ok := u.body().List[i].(*ast.ExprStmt)
			if !ok {
				continue
			}
			if call, ok := unparen(es.X).(*ast.CallExpr); ok {
				if f := calleeFunc(u.pkg, call); f != nil && a.objWhy[f] != "" {
					why = "calls " + f.Name() + ", which " + a.objWhy[f]
				}
			}
		}
		if why == "" {
			return nil
		}
		a.mark(u, why)
		return ix.callers[u]
	}
	if !ix.solve("goleak", ix.all, step) {
		a.nodeWhy, a.objWhy = nil, nil
	}
}

func (a *GoLeak) mark(u *funcUnit, why string) {
	a.nodeWhy[u.node()] = why
	if u.obj != nil {
		a.objWhy[u.obj] = why
	}
}

func (a *GoLeak) Run(pkg *Package, r *Reporter) {
	for _, u := range a.ix.units[pkg] {
		// Visit this unit's own go statements. Nested literals are their
		// own units (including the literal a GoStmt spawns), so pruning
		// here still covers every spawn exactly once.
		ast.Inspect(u.body(), func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				a.checkGo(u.pkg, x, r)
				return false
			}
			return true
		})
	}
}

func (a *GoLeak) checkGo(pkg *Package, g *ast.GoStmt, r *Reporter) {
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if why := a.nodeWhy[lit]; why != "" {
			r.Reportf(g.Pos(), "goroutine leak: this goroutine %s, so it can never exit; add a ctx.Done()/close-signal escape", why)
		}
		return
	}
	if f := calleeFunc(pkg, g.Call); f != nil {
		if why := a.objWhy[f]; why != "" {
			r.Reportf(g.Pos(), "goroutine leak: %s %s, so the goroutine can never exit; add a ctx.Done()/close-signal escape", f.Name(), why)
		}
	}
}

// directBlocksForever reports why a function body blocks forever on its
// own (no propagation), or "".
func directBlocksForever(u *funcUnit) string {
	why := ""
	ast.Inspect(u.body(), func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch st := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if st.Cond == nil && hasBlockingOp(u.pkg, st.Body) && !loopEscapes(st.Body) {
				why = "loops forever over channel operations with no return, break, or terminating call"
				return false
			}
		case *ast.RangeStmt:
			if tickerChan(u.pkg, st.X) && !loopEscapes(st.Body) {
				why = "ranges over a time.Ticker channel, which is never closed"
				return false
			}
		}
		return true
	})
	return why
}

// hasBlockingOp reports whether the loop body contains a channel
// operation that can block: a select with no default clause, a send, a
// receive, or a range over a channel. Goroutine bodies and nested
// literals do not count — they block on their own stack.
func hasBlockingOp(pkg *Package, body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				blocking = true
			}
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				blocking = true
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok {
				if _, isCh := tv.Type.Underlying().(*types.Chan); isCh {
					blocking = true
				}
			}
		}
		return !blocking
	})
	return blocking
}

// loopEscapes reports whether the loop body has a lexical way out of the
// loop: a return, a goto or labeled break (conservatively assumed to
// escape), an unlabeled break at the loop's own nesting level, or a
// terminator call. Breaks inside nested loops/switches/selects target
// those, not this loop.
func loopEscapes(body *ast.BlockStmt) bool {
	escape := false
	depth := 0
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if isBreakTarget(top) {
				depth--
			}
			return true
		}
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false // not pushed: Inspect sends no pop for pruned nodes
		case *ast.ReturnStmt:
			escape = true
		case *ast.BranchStmt:
			switch x.Tok {
			case token.GOTO:
				escape = true
			case token.BREAK:
				if x.Label != nil || depth == 0 {
					escape = true
				}
			}
		case *ast.ExprStmt:
			if isTerminatorCall(x.X) {
				escape = true
			}
		}
		stack = append(stack, n)
		if isBreakTarget(n) {
			depth++
		}
		return true
	})
	return escape
}

func isBreakTarget(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return true
	}
	return false
}

// tickerChan matches expressions that yield a never-closed ticker
// channel: a time.Ticker's C field or a time.Tick call.
func tickerChan(pkg *Package, e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		if x.Sel.Name != "C" {
			return false
		}
		s, ok := pkg.Info.Selections[x]
		if !ok {
			return false
		}
		named, ok := derefType(s.Recv()).(*types.Named)
		return ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Ticker"
	case *ast.CallExpr:
		f := calleeFunc(pkg, x)
		return f != nil && f.Pkg() != nil && f.Pkg().Path() == "time" && f.Name() == "Tick"
	}
	return false
}
