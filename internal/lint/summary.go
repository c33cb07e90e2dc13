package lint

// summary.go holds the function units and the call-graph summaries the
// dataflow analyzers share, each solved once over the module index
// (index.go) so facts cross function and package boundaries:
//
//   - transitive I/O: which module functions perform network or disk I/O
//     on their synchronous path (goroutine bodies and function literals do
//     not count — the caller does not wait on them). Calls into
//     deta/internal/journal are a deliberate barrier: the WAL's
//     commit-before-ack write is the sanctioned, documented exception to
//     both the lock-region and context rules (DESIGN.md §9).
//   - lock effects: the net lock classes a function leaves held (or
//     releases) for its caller, so helper-held locks are visible at call
//     sites (lockregion, lockorder), and the classes it may acquire at
//     all (lockorder).
//
// All summaries key on *types.Func object identity, which is stable
// across packages because one Loader run shares a single dependency
// cache: the object a caller's Info.Uses resolves to is the same object
// the callee's package defined.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// funcUnit is one analyzable function body: a declared function/method
// (obj non-nil) or a function literal (obj nil).
type funcUnit struct {
	pkg  *Package
	decl *ast.FuncDecl // non-nil iff a declaration
	lit  *ast.FuncLit  // non-nil iff a literal
	obj  *types.Func   // nil for literals

	// parent is the innermost enclosing unit of a function literal (nil
	// for declarations and free-standing literals, e.g. package-level var
	// initializers). Analyzers that recurse into literals from the
	// enclosing body — keytaint checks closures with the captured-variable
	// taint that holds at their creation point — skip parented units to
	// avoid analyzing the same body twice.
	parent *funcUnit
}

func (u *funcUnit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

func (u *funcUnit) node() ast.Node {
	if u.decl != nil {
		return u.decl
	}
	return u.lit
}

func (u *funcUnit) ftype() *ast.FuncType {
	if u.decl != nil {
		return u.decl.Type
	}
	return u.lit.Type
}

// funcUnits returns every function body in the package in source order.
// Literals are their own units — they are opaque in the enclosing
// function's CFG — but carry a parent link to the unit that lexically
// encloses them, maintained with a traversal stack (ast.Inspect calls the
// callback with nil after a node's children, which is when the stack
// pops).
func funcUnits(pkg *Package) []*funcUnit {
	var units []*funcUnit
	for _, file := range pkg.Files {
		var nodes []ast.Node // traversal stack
		var open []*funcUnit // enclosing units, innermost last
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				top := nodes[len(nodes)-1]
				nodes = nodes[:len(nodes)-1]
				if len(open) > 0 && open[len(open)-1].node() == top {
					open = open[:len(open)-1]
				}
				return true
			}
			nodes = append(nodes, n)
			var u *funcUnit
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Body != nil {
					obj, _ := pkg.Info.Defs[x.Name].(*types.Func)
					u = &funcUnit{pkg: pkg, decl: x, obj: obj}
				}
			case *ast.FuncLit:
				u = &funcUnit{pkg: pkg, lit: x}
				if len(open) > 0 {
					u.parent = open[len(open)-1]
				}
			}
			if u != nil {
				units = append(units, u)
				open = append(open, u)
			}
			return true
		})
	}
	return units
}

// ---------------------------------------------------------------------------
// Transitive I/O summaries.

type ioKind uint8

const (
	ioNet ioKind = 1 << iota
	ioDisk
)

func (k ioKind) String() string {
	switch {
	case k&ioNet != 0 && k&ioDisk != 0:
		return "network/disk"
	case k&ioNet != 0:
		return "network"
	case k&ioDisk != 0:
		return "disk"
	}
	return "no"
}

// ioInfo records what kind of I/O a function performs on its sync path
// and a human-readable witness for the report message.
type ioInfo struct {
	kind ioKind
	via  string // first primitive or callee that contributed
}

const journalPath = "deta/internal/journal"

// netVerbsByPkg names the I/O primitives outside the module, keyed by the
// defining package of the resolved callee object (so interface methods
// like net.Conn.Read match without receiver gymnastics).
var netVerbs = map[string]map[string]bool{
	"net":        {"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true, "Accept": true},
	"crypto/tls": {"Read": true, "Write": true, "Handshake": true, "HandshakeContext": true},
	"io":         {"ReadFull": true, "ReadAtLeast": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
	"bufio":      {"Flush": true, "Read": true},
	// Hardcoded so fixture packages (which see transport api-only) and
	// single-package runs still classify transport calls correctly.
	"deta/internal/transport": {
		"CallContext": true, "CallTypedContext": true, "CallSizedContext": true,
		"Serve": true, "Accept": true, "Redial": true,
	},
}

var diskFuncs = map[string]bool{
	"Create": true, "Open": true, "OpenFile": true, "ReadFile": true,
	"WriteFile": true, "Rename": true, "Remove": true, "RemoveAll": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true, "Truncate": true,
}

var diskVerbs = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"Sync": true, "Truncate": true, "Seek": true, "ReadFrom": true, "WriteTo": true,
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// calleeFunc resolves a call to the *types.Func it invokes (declared
// function, method, or interface method), or nil for builtins,
// conversions, and calls through plain function values.
func calleeFunc(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := pkg.Info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return f
	case *ast.IndexExpr: // generic instantiation: transport.CallTypedContext[Req, Resp](...)
		return calleeFunc(pkg, &ast.CallExpr{Fun: fun.X})
	case *ast.IndexListExpr:
		return calleeFunc(pkg, &ast.CallExpr{Fun: fun.X})
	}
	return nil
}

// ioPrimitive classifies a call as a direct I/O primitive. Calls into
// deta/internal/journal never count (WAL barrier, see package comment).
func ioPrimitive(pkg *Package, call *ast.CallExpr) (ioKind, string) {
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		name := sel.Sel.Name
		// Calls through func-typed fields or variables named like dialers.
		obj := pkg.Info.Uses[sel.Sel]
		if v, ok := obj.(*types.Var); ok {
			if _, isSig := v.Type().Underlying().(*types.Signature); isSig &&
				(name == "Redial" || strings.HasPrefix(name, "Dial")) {
				return ioNet, types.ExprString(sel.X) + "." + name
			}
		}
	}
	f := calleeFunc(pkg, call)
	if f == nil || f.Pkg() == nil {
		// A call through a bare func value named like a dialer.
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
				if _, isSig := v.Type().Underlying().(*types.Signature); isSig &&
					(id.Name == "redial" || strings.HasPrefix(id.Name, "dial") || strings.HasPrefix(id.Name, "Dial")) {
					return ioNet, id.Name
				}
			}
		}
		return 0, ""
	}
	path, name := f.Pkg().Path(), f.Name()
	if path == journalPath {
		return 0, ""
	}
	if verbs, ok := netVerbs[path]; ok {
		if verbs[name] || strings.HasPrefix(name, "Dial") {
			return ioNet, f.Pkg().Name() + "." + name
		}
	}
	if path == "net" && strings.HasPrefix(name, "Dial") {
		return ioNet, "net." + name
	}
	if path == "os" {
		if f.Type().(*types.Signature).Recv() == nil {
			if diskFuncs[name] {
				return ioDisk, "os." + name
			}
		} else if diskVerbs[name] {
			return ioDisk, "os.File." + name
		}
	}
	return 0, ""
}

// computeIO builds the transitive I/O summary over all declared module
// functions: direct primitives first (they win the witness), then callees.
// Goroutine bodies and function literals are excluded (async path); calls
// into deta/internal/journal are excluded (WAL barrier).
func computeIO(ix *moduleIndex) map[*types.Func]ioInfo {
	return summarize(ix, "transitive I/O", ix.decls, func(u *funcUnit, sum map[*types.Func]ioInfo) ioInfo {
		var info ioInfo
		var callees []*types.Func
		syncWalk(u.body(), func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			if k, via := ioPrimitive(u.pkg, call); k != 0 {
				if info.kind&k != k {
					info.kind |= k
					if info.via == "" {
						info.via = via
					}
				}
				return
			}
			if f := calleeFunc(u.pkg, call); f != nil && f.Pkg() != nil &&
				strings.HasPrefix(f.Pkg().Path(), "deta/") && f.Pkg().Path() != journalPath {
				callees = append(callees, f)
			}
		})
		for _, f := range callees {
			if add := sum[f].kind &^ info.kind; add != 0 {
				info.kind |= add
				if info.via == "" {
					info.via = f.Name()
				}
			}
		}
		return info
	}, eq[ioInfo])
}

// syncWalk visits the nodes of body that execute on the caller's
// synchronous path: it skips goroutine bodies and function literals
// entirely (including the spawned call expression itself).
func syncWalk(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt, *ast.FuncLit:
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// ---------------------------------------------------------------------------
// Lock-class summaries (lockregion, lockorder).
//
// Lock identity here is a *class*, not an instance: a struct-field mutex
// is named by its owning named type plus the field ("core.AggregatorNode.mu",
// embedded owners resolved through the selection's index path), a
// package-level mutex by "pkg.var". Classes are global strings, so class
// effects propagate through call edges with no argument mapping at all.
// Local mutexes have no class: lockregion keys them by their printed
// expression, lockorder ignores them, and no summary carries them.

// mutexOp matches `<expr>.Lock()/RLock()/Unlock()/RUnlock()` where the
// receiver is a sync.Mutex or sync.RWMutex, returning the receiver.
func mutexOp(pkg *Package, e ast.Expr) (mu ast.Expr, name string, ok bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", false
	}
	s, ok := pkg.Info.Selections[sel]
	if !ok {
		return nil, "", false
	}
	named, isNamed := derefType(s.Recv()).(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return nil, "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// lockClass names the lock class of a mutex-valued expression, or "" if
// the expression has no class (locals, unresolvable chains).
func lockClass(pkg *Package, e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[x]; ok {
			return fieldClass(s)
		}
		// Package-qualified selector: otherpkg.GlobalMu.
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Name() + "." + v.Name()
		}
	}
	return ""
}

// fieldClass names the owning named type of a selected field:
// "pkg.Type.field". The selection's index path is walked so the owner is
// the struct that actually declares the field, even through embedding.
func fieldClass(s *types.Selection) string {
	t := s.Recv()
	idx := s.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok {
			return ""
		}
		t = st.Field(i).Type()
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + s.Obj().Name()
}

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// mutexClassOp matches a mutex Lock/RLock/Unlock/RUnlock call whose lock
// has a resolvable class.
func mutexClassOp(pkg *Package, e ast.Expr) (class, name string, ok bool) {
	if mu, n, isOp := mutexOp(pkg, e); isOp {
		if c := lockClass(pkg, mu); c != "" {
			return c, n, true
		}
	}
	return "", "", false
}

// classFX is one net class-level lock effect a function performs for its
// caller.
type classFX struct {
	class   string
	acquire bool
}

// unitClassFX is the transfer of the net lock-effect summary (the index's
// classFX): the lock classes u leaves held, or releases, for its caller.
// A release cancels the latest matching acquire and vice versa, so
// balanced Lock/Unlock — direct, through calls, or Lock with a deferred
// Unlock — leaves nothing.
func unitClassFX(u *funcUnit, summaries map[*types.Func][]classFX) []classFX {
	var fx []classFX
	apply := func(class string, acquire bool) {
		for i := len(fx) - 1; i >= 0; i-- {
			if fx[i].class == class && fx[i].acquire != acquire {
				fx = append(fx[:i], fx[i+1:]...)
				return
			}
		}
		fx = append(fx, classFX{class: class, acquire: acquire})
	}
	// releasesOnly models deferred calls, which (like deferred Unlocks)
	// only ever discharge a held lock.
	callFX := func(call *ast.CallExpr, releasesOnly bool) {
		for _, e := range summaries[calleeFunc(u.pkg, call)] {
			if !releasesOnly || !e.acquire {
				apply(e.class, e.acquire)
			}
		}
	}
	syncWalk(u.body(), func(n ast.Node) {
		switch st := n.(type) {
		case *ast.ExprStmt:
			if class, name, ok := mutexClassOp(u.pkg, st.X); ok {
				apply(class, name == "Lock" || name == "RLock")
				return
			}
			if call, ok := unparen(st.X).(*ast.CallExpr); ok {
				callFX(call, false)
			}
		case *ast.AssignStmt:
			for _, rhs := range st.Rhs {
				if call, ok := unparen(rhs).(*ast.CallExpr); ok {
					callFX(call, false)
				}
			}
		case *ast.DeferStmt:
			if class, name, ok := mutexClassOp(u.pkg, st.Call); ok {
				if name == "Unlock" || name == "RUnlock" {
					apply(class, false)
				}
				return
			}
			callFX(st.Call, true)
		}
	})
	return fx
}

// heldTransfer updates a may-held lock set for one CFG node: a direct
// mutex operation on the lock named by key (ignored when key returns ""),
// or the net class effects (fx) of the node's synchronous calls. A held
// lock keeps its first acquisition site. Deferred unlocks run at function
// exit, never mid-function, so a DeferStmt has no effect.
func heldTransfer(pkg *Package, fx map[*types.Func][]classFX, key func(*Package, ast.Expr) string, f lockFact, n ast.Node) {
	hold := func(k string, pos token.Pos) {
		if _, held := f[k]; !held {
			f[k] = pos
		}
	}
	if st, ok := n.(*ast.ExprStmt); ok {
		if mu, op, ok := mutexOp(pkg, st.X); ok {
			switch k := key(pkg, mu); {
			case k == "":
			case op == "Lock" || op == "RLock":
				hold(k, st.Pos())
			default:
				delete(f, k)
			}
			return
		}
	}
	if _, ok := n.(*ast.DeferStmt); ok {
		return
	}
	inspectSyncCalls(n, func(call *ast.CallExpr) {
		for _, e := range fx[calleeFunc(pkg, call)] {
			if e.acquire {
				hold(e.class, call.Pos())
			} else {
				delete(f, e.class)
			}
		}
	})
}

// acqWitness records where a summarized acquisition actually happens, for
// report provenance.
type acqWitness struct {
	pos token.Pos
	fn  string
}

// computeLockAcq summarizes, per declared function, every lock class it
// MAY acquire on its synchronous path — directly or through module
// callees at any depth (a may-union, unlike the net effects above: an
// acquire-then-release still establishes lock order). The journal is NOT
// exempt here: its mutex participates in ordering like any other.
func computeLockAcq(ix *moduleIndex) map[*types.Func]map[string]acqWitness {
	return summarize(ix, "lock acquisitions", ix.decls, func(u *funcUnit, sum map[*types.Func]map[string]acqWitness) map[string]acqWitness {
		set := make(map[string]acqWitness)
		var callees []*types.Func
		syncWalk(u.body(), func(n ast.Node) {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if class, name, ok := mutexClassOp(u.pkg, st.X); ok && (name == "Lock" || name == "RLock") {
					if _, seen := set[class]; !seen {
						set[class] = acqWitness{pos: st.Pos(), fn: fnDisplayName(u)}
					}
				}
			case *ast.CallExpr:
				if f := calleeFunc(u.pkg, st); f != nil && f.Pkg() != nil &&
					strings.HasPrefix(f.Pkg().Path(), "deta/") {
					callees = append(callees, f)
				}
			}
		})
		for _, f := range callees {
			for class, w := range sum[f] {
				if _, seen := set[class]; !seen {
					set[class] = w
				}
			}
		}
		return set
	}, maps.Equal[map[string]acqWitness])
}

// fnDisplayName names a function unit for report messages.
func fnDisplayName(u *funcUnit) string {
	if u.decl != nil {
		if u.decl.Recv != nil && len(u.decl.Recv.List) > 0 {
			return fmt.Sprintf("(%s).%s", types.ExprString(u.decl.Recv.List[0].Type), u.decl.Name.Name)
		}
		return u.decl.Name.Name
	}
	return "func literal"
}
