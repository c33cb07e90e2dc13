package lint

// KeyTaint tracks key material through the module and flags any flow into
// a place it must never appear. DeTA's separation-of-duties argument
// depends on the permutation key and attestation-token material staying
// inside the components entitled to them (paper §4): a key that leaks
// into a log line, an error string, the plaintext WAL, or any wire
// message other than the AP's own PermKey response collapses the threat
// model.
//
// Sources (by resolved callee or field object):
//   - attest.KeyBroker.PermutationKey / core.APClient.PermKey (the key)
//   - attest.Proxy.VerifyAndIssueToken (serialized token private key)
//   - sev.CVM.GuestReadSecret (injected launch secret)
//   - rng.DeriveSeed (subkeys are keys)
//   - the permKey/token fields of KeyBroker, Shuffler, Token
//
// Sinks: fmt formatting/print family, errors.New/Join, the log package,
// journal Append/Compact payloads, and the wire: transport.Encode, the body
// argument of (*transport.Client).CallContext, the value a handler literal
// registered with (*transport.Server).Handle returns, and any module wire
// struct named *Req/*Resp. The AP's own PermKey and launch-blob responses
// are raw handler returns, acknowledged in code with //lint:ignore.
//
// Sanitizers: rng.Fingerprint, SHA-2 digests, HMAC construction, and the
// builtins (len of a key is not the key). Assigning a sanitized value
// over a tainted variable clears it (strong update on the CFG).
//
// The analysis is two-level: a module-wide, flow-insensitive fixpoint
// (Prepare, on the module index's solver) marks tainted struct fields,
// parameters, and returns so facts cross function boundaries; then a
// per-function, flow-sensitive pass over the CFG checks sinks with
// path-union (may) taint.
import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type KeyTaint struct {
	ix *moduleIndex
	g  *taintGlobal
}

func (*KeyTaint) Name() string { return "keytaint" }
func (*KeyTaint) Doc() string {
	return "key material must not reach logs, error strings, the journal, or non-PermKey wire messages"
}

// keyTaintSources maps resolved callees (pkgpath[.Recv].Name) to the
// label of the key material they return.
var keyTaintSources = map[string]string{
	"deta/internal/attest.KeyBroker.PermutationKey":  "permutation key",
	"deta/internal/core.APClient.PermKey":            "permutation key",
	"deta/internal/attest.Proxy.VerifyAndIssueToken": "attestation token key",
	"deta/internal/sev.CVM.GuestReadSecret":          "injected launch secret",
	"deta/internal/rng.DeriveSeed":                   "derived subkey",
}

// keyTaintFieldSpecs hardcodes the struct fields that hold key material
// at rest; stores of tainted values discover further fields dynamically.
var keyTaintFieldSpecs = map[string]string{
	"deta/internal/attest.KeyBroker.permKey": "permutation key",
	"deta/internal/core.Shuffler.permKey":    "permutation key",
	"deta/internal/attest.Token.key":         "attestation token key",
}

// keyTaintSanitizers are one-way boundaries: their results reveal nothing
// recoverable about the key.
var keyTaintSanitizers = map[string]bool{
	"deta/internal/rng.Fingerprint":     true,
	"crypto/sha256.Sum256":              true,
	"crypto/sha256.New":                 true,
	"crypto/sha512.Sum512":              true,
	"crypto/sha512.New":                 true,
	"crypto/hmac.New":                   true,
	"crypto/subtle.ConstantTimeCompare": true,
}

// keyTaintPropagators are pure reshapings: the result still contains the
// key bytes (possibly re-encoded).
var keyTaintPropagators = map[string]bool{
	"bytes.Clone": true, "bytes.Join": true, "bytes.Repeat": true,
	"slices.Clone": true, "slices.Concat": true,
	"encoding/hex.EncodeToString": true, "encoding/hex.Dump": true,
	"encoding/base64.Encoding.EncodeToString": true,
	"strings.Clone": true,
}

func (a *KeyTaint) Prepare(ix *moduleIndex) {
	a.ix = ix
	a.g = computeTaint(ix)
}

func (a *KeyTaint) Run(pkg *Package, r *Reporter) {
	if a.g == nil {
		return // the fixpoint did not settle; solve has reported it
	}
	env := &taintEnv{pkg: pkg, g: a.g, handlers: make(map[*ast.FuncLit]bool)}
	for _, u := range a.ix.units[pkg] {
		if u.lit != nil && u.parent != nil {
			// Nested literals are checked in context by the enclosing
			// unit's pass (checkFuncLit), carrying captured-variable
			// taint; a second, context-free pass here would only
			// double-report or miss captures.
			continue
		}
		checkTaintUnit(env, u, r)
	}
}

// taintFact maps a variable object to the label of the key material it
// may hold.
type taintFact = fact[types.Object, string]

// taintGlobal is the module-wide summary: fields, parameters, and
// returns that carry key material. It only grows.
type taintGlobal struct {
	fields  map[*types.Var]string
	params  map[*types.Var]string
	returns map[*types.Func]string
}

func (g *taintGlobal) size() int { return len(g.fields) + len(g.params) + len(g.returns) }

// computeTaint solves the global taint summary. Each package shares one
// weak (no-kill, object-keyed) environment: a function literal resolves
// captured variables to the very objects its enclosing function defined,
// so sharing is what lets taint flow into and out of closures, and
// distinct functions cannot pollute each other — their locals are
// distinct objects. A function and the literals nested in it are one
// solve unit, scanned together until neither the environment nor the
// global summary grows. What grew decides what re-runs: a tainted field
// every unit, a tainted return the callers, a tainted parameter the
// callees.
func computeTaint(ix *moduleIndex) *taintGlobal {
	g := &taintGlobal{
		fields:  resolveTaintFields(ix.pkgs),
		params:  make(map[*types.Var]string),
		returns: make(map[*types.Func]string),
	}
	top := func(u *funcUnit) *funcUnit {
		for u.parent != nil {
			u = u.parent
		}
		return u
	}
	var tops []*funcUnit
	family := make(map[*funcUnit][]*funcUnit)
	envs := make(map[*Package]*taintEnv)
	for _, u := range ix.all {
		if t := top(u); t != u {
			family[t] = append(family[t], u)
			continue
		}
		tops = append(tops, u)
		family[u] = []*funcUnit{u}
		if envs[u.pkg] == nil {
			envs[u.pkg] = &taintEnv{pkg: u.pkg, g: g, weak: true, local: make(taintFact)}
		}
	}
	step := func(t *funcUnit) []*funcUnit {
		env := envs[t.pkg]
		fields, params, returns := len(g.fields), len(g.params), len(g.returns)
		for {
			before := g.size()
			env.localChanged = false
			for _, u := range family[t] {
				scanTaintUnit(env, u)
			}
			if !env.localChanged && g.size() == before {
				break
			}
		}
		if len(g.fields) > fields {
			return tops
		}
		var rerun []*funcUnit
		if len(g.returns) > returns {
			for _, c := range ix.callers[t] {
				rerun = append(rerun, top(c))
			}
		}
		if len(g.params) > params {
			for _, u := range family[t] {
				for _, f := range ix.calls[u] {
					if c := ix.byObj[f]; c != nil {
						rerun = append(rerun, c)
					}
				}
			}
		}
		return rerun
	}
	if !ix.solve("keytaint", tops, step) {
		return nil
	}
	return g
}

// resolveTaintFields turns keyTaintFieldSpecs into field objects for the
// packages actually loaded.
func resolveTaintFields(pkgs []*Package) map[*types.Var]string {
	out := make(map[*types.Var]string)
	for spec, label := range keyTaintFieldSpecs {
		dot := strings.LastIndex(spec, ".")
		fieldName := spec[dot+1:]
		rest := spec[:dot]
		dot = strings.LastIndex(rest, ".")
		pkgPath, typeName := rest[:dot], rest[dot+1:]
		for _, pkg := range pkgs {
			if pkg.Path != pkgPath || pkg.Types == nil {
				continue
			}
			obj := pkg.Types.Scope().Lookup(typeName)
			if obj == nil {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Name() == fieldName {
					out[f] = label
				}
			}
		}
	}
	return out
}

// scanTaintUnit is one flow-insensitive sweep of a function body for the
// global fixpoint: it grows the persistent weak local environment and
// records tainted parameters, field stores, and returns.
func scanTaintUnit(env *taintEnv, u *funcUnit) {
	seedParams(env, u, env.local)
	syncWalk(u.body(), func(n ast.Node) { env.transfer(env.local, n) })
	syncWalk(u.body(), func(n ast.Node) {
		switch x := n.(type) {
		case *ast.CallExpr:
			env.recordArgTaint(env.local, x)
		case *ast.ReturnStmt:
			if u.obj == nil {
				return
			}
			for _, res := range x.Results {
				if label, ok := env.exprTaint(env.local, res); ok {
					if _, seen := env.g.returns[u.obj]; !seen {
						env.g.returns[u.obj] = label
					}
				}
			}
		}
	})
}

// seedParams marks parameters the global fixpoint found tainted.
func seedParams(env *taintEnv, u *funcUnit, f taintFact) {
	params := u.ftype().Params
	if params == nil {
		return
	}
	for _, field := range params.List {
		for _, name := range field.Names {
			if pv, ok := env.pkg.Info.Defs[name].(*types.Var); ok {
				if label, ok := env.g.params[pv]; ok {
					f[pv] = label
				}
			}
		}
	}
}

// checkTaintUnit is the precise, flow-sensitive pass: solve taint over
// the CFG with strong updates, then report sink reaches.
func checkTaintUnit(env *taintEnv, u *funcUnit, r *Reporter) {
	entry := make(taintFact)
	seedParams(env, u, entry)
	checkTaintBody(env, u.body(), entry, false, r)
}

// checkTaintBody solves taint over one body's CFG from the given entry
// fact and reports sink reaches — shared by declared units (empty entry
// plus parameter seeds) and closures (the enclosing fact at creation).
// In a handler's body the returned response is a wire sink too.
func checkTaintBody(env *taintEnv, body *ast.BlockStmt, entry taintFact, handler bool, r *Reporter) {
	c := buildCFG(body)
	transfer := func(f taintFact, n ast.Node) { env.transfer(f, n) }
	in := solveForward(c, entry, transfer)
	for _, blk := range reachableBlocks(c, in) {
		f := cloneFact(in[blk])
		for _, n := range blk.nodes {
			env.checkSinks(f, n, r)
			if ret, ok := n.(*ast.ReturnStmt); ok && handler && len(ret.Results) > 0 {
				if label, tainted := env.exprTaint(f, ret.Results[0]); tainted {
					r.Reportf(ret.Pos(), wireLeak, label, "a transport.Handler's response")
				}
			}
			env.transfer(f, n)
		}
	}
	// Deferred calls run at exit with whatever may be tainted there.
	if exitFact, ok := in[c.exit]; ok {
		for _, d := range c.defers {
			env.checkSinks(exitFact, d, r)
		}
	}
}

// checkFuncLit recurses into a function literal at its creation point,
// seeding the closure body with a clone of the fact that holds where the
// literal is built: captured variables carry their taint in (key material
// laundered through a closure is still key material), and — because the
// seed is the flow-sensitive fact, not a may-union — a variable strongly
// updated to a sanitized value before the literal stays clean inside it.
// Nested literals recurse naturally.
func (env *taintEnv) checkFuncLit(f taintFact, lit *ast.FuncLit, r *Reporter) {
	if lit.Body == nil {
		return
	}
	u := &funcUnit{pkg: env.pkg, lit: lit}
	entry := cloneFact(f)
	seedParams(env, u, entry)
	checkTaintBody(env, lit.Body, entry, env.handlers[lit], r)
}

// taintEnv carries the shared context of the taint passes. weak mode
// (global fixpoint) never kills facts; strong mode (CFG pass) does.
type taintEnv struct {
	pkg          *Package
	g            *taintGlobal
	local        taintFact // persistent env for weak mode only
	weak         bool
	localChanged bool
	// handlers are the literals registered with Server.Handle, marked at
	// the call before the literal's body is checked.
	handlers map[*ast.FuncLit]bool
}

// transfer applies one node's effect on the taint fact.
func (env *taintEnv) transfer(f taintFact, n ast.Node) {
	switch st := n.(type) {
	case *ast.AssignStmt:
		env.assign(f, st.Lhs, st.Rhs)
	case *ast.DeclStmt:
		gd, ok := st.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || len(vs.Values) == 0 {
				continue
			}
			lhs := make([]ast.Expr, len(vs.Names))
			for i, name := range vs.Names {
				lhs[i] = name
			}
			env.assign(f, lhs, vs.Values)
		}
	case *ast.RangeStmt:
		label, tainted := env.exprTaint(f, st.X)
		for _, e := range []ast.Expr{st.Key, st.Value} {
			if e != nil {
				env.setObj(f, e, label, tainted)
			}
		}
	case *ast.ExprStmt:
		env.sideEffects(f, st.X)
	}
}

// sideEffects models value-free statements that still move taint:
// copy(dst, src) taints dst.
func (env *taintEnv) sideEffects(f taintFact, e ast.Expr) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return
	}
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "copy" {
		return
	}
	if _, isBuiltin := env.pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return
	}
	if label, tainted := env.exprTaint(f, call.Args[1]); tainted {
		env.setObj(f, call.Args[0], label, true)
	}
}

func (env *taintEnv) assign(f taintFact, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 && len(lhs) > 1 {
		label, tainted := env.exprTaint(f, rhs[0])
		for _, l := range lhs {
			env.setObj(f, l, label, tainted)
		}
		return
	}
	for i, l := range lhs {
		if i >= len(rhs) {
			break
		}
		label, tainted := env.exprTaint(f, rhs[i])
		env.setObj(f, l, label, tainted)
		env.recordFieldStore(f, l, rhs[i])
	}
}

// setObj marks (or, in strong mode, clears) the object behind a simple
// identifier target. Non-carrier types (numerics, bools, errors) never
// hold taint — they cannot smuggle key bytes into a sink.
func (env *taintEnv) setObj(f taintFact, target ast.Expr, label string, tainted bool) {
	id, ok := unparen(target).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := env.pkg.Info.Defs[id]
	if obj == nil {
		obj = env.pkg.Info.Uses[id]
	}
	if obj == nil {
		return
	}
	if tainted && carrierType(obj.Type()) {
		if _, seen := f[obj]; !seen {
			f[obj] = label
			env.localChanged = true
		}
		return
	}
	if !env.weak {
		delete(f, obj) // strong update: a clean value overwrites the taint
	}
}

// recordFieldStore notes `x.field = tainted` in the global field map so
// every later read of the field is tainted, module-wide.
func (env *taintEnv) recordFieldStore(f taintFact, target, value ast.Expr) {
	sel, ok := unparen(target).(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := env.pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	fv, ok := s.Obj().(*types.Var)
	if !ok || !carrierType(fv.Type()) {
		return
	}
	if label, tainted := env.exprTaint(f, value); tainted {
		if _, seen := env.g.fields[fv]; !seen {
			env.g.fields[fv] = label
		}
	}
}

// recordArgTaint propagates tainted arguments into callee parameter
// summaries for module functions.
func (env *taintEnv) recordArgTaint(f taintFact, call *ast.CallExpr) {
	callee := calleeFunc(env.pkg, call)
	if callee == nil || callee.Pkg() == nil || !strings.HasPrefix(callee.Pkg().Path(), "deta/") {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		label, tainted := env.exprTaint(f, arg)
		if !tainted {
			continue
		}
		pi := i
		if pi >= sig.Params().Len() {
			pi = sig.Params().Len() - 1 // variadic tail
		}
		pv := sig.Params().At(pi)
		if !carrierType(pv.Type()) {
			continue
		}
		if _, seen := env.g.params[pv]; !seen {
			env.g.params[pv] = label
		}
	}
}

// exprTaint reports whether e may evaluate to key material, and which.
func (env *taintEnv) exprTaint(f taintFact, e ast.Expr) (string, bool) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := env.pkg.Info.Uses[x]
		if obj == nil {
			obj = env.pkg.Info.Defs[x]
		}
		if obj == nil {
			return "", false
		}
		if label, ok := f[obj]; ok {
			return label, true
		}
		if pv, ok := obj.(*types.Var); ok {
			if label, ok := env.g.params[pv]; ok {
				return label, true
			}
		}
		return "", false
	case *ast.SelectorExpr:
		if s, ok := env.pkg.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if fv, ok := s.Obj().(*types.Var); ok {
				if label, ok := env.g.fields[fv]; ok {
					return label, true
				}
				if !carrierType(fv.Type()) {
					// A non-carrier field (int, bool, ...) of a tainted
					// struct cannot hold key bytes: m.n of a key-derived
					// mapper is a length, not the key.
					return "", false
				}
			}
		}
		return env.exprTaint(f, x.X)
	case *ast.CallExpr:
		return env.callTaint(f, x)
	case *ast.IndexExpr:
		return env.exprTaint(f, x.X)
	case *ast.SliceExpr:
		return env.exprTaint(f, x.X)
	case *ast.StarExpr:
		return env.exprTaint(f, x.X)
	case *ast.UnaryExpr:
		return env.exprTaint(f, x.X)
	case *ast.BinaryExpr:
		if x.Op == token.ADD { // concatenation keeps the bytes
			if label, ok := env.exprTaint(f, x.X); ok {
				return label, true
			}
			return env.exprTaint(f, x.Y)
		}
		return "", false // comparisons and arithmetic produce clean values
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if label, ok := env.exprTaint(f, v); ok {
				return label, true
			}
		}
		return "", false
	case *ast.TypeAssertExpr:
		return env.exprTaint(f, x.X)
	}
	return "", false
}

func (env *taintEnv) callTaint(f taintFact, call *ast.CallExpr) (string, bool) {
	// Conversions keep the bytes: string(key), []byte(s).
	if tv, ok := env.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return env.exprTaint(f, call.Args[0])
		}
		return "", false
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := env.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			if id.Name == "append" {
				for _, a := range call.Args {
					if label, ok := env.exprTaint(f, a); ok {
						return label, true
					}
				}
			}
			return "", false // len(key) is not the key
		}
	}
	callee := calleeFunc(env.pkg, call)
	if callee == nil {
		return "", false
	}
	key := funcKey(callee)
	if label, ok := keyTaintSources[key]; ok {
		return label, true
	}
	if keyTaintSanitizers[key] {
		return "", false
	}
	if label, ok := env.g.returns[callee]; ok {
		return label, true
	}
	if keyTaintPropagators[key] {
		for _, a := range call.Args {
			if label, ok := env.exprTaint(f, a); ok {
				return label, true
			}
		}
	}
	return "", false
}

// checkSinks inspects one CFG node for sink reaches with the fact that
// holds on entry to the node. Function-literal bodies are checked by
// recursion with the current fact (checkFuncLit) — captured key material
// must not escape through a closure; goroutine argument expressions ARE
// evaluated here, so go/defer statements are inspected too.
func (env *taintEnv) checkSinks(f taintFact, n ast.Node, r *Reporter) {
	ast.Inspect(n, func(x ast.Node) bool {
		switch node := x.(type) {
		case *ast.FuncLit:
			env.checkFuncLit(f, node, r)
			return false
		case *ast.CallExpr:
			env.checkSinkCall(f, node, r)
		case *ast.CompositeLit:
			env.checkWireComposite(f, node, r)
		case *ast.AssignStmt:
			env.checkWireFieldStore(f, node, r)
		}
		return true
	})
}

// wireLeak is the finding for key material on the wire.
const wireLeak = "key material (%s) reaches %s: key bytes go on the wire only in the AP's PermKey and launch-blob responses, acknowledged in code"

func (env *taintEnv) checkSinkCall(f taintFact, call *ast.CallExpr, r *Reporter) {
	callee := calleeFunc(env.pkg, call)
	if callee == nil || callee.Pkg() == nil {
		return
	}
	if funcKey(callee) == "deta/internal/transport.Server.Handle" {
		// The literal's returns are checked with its body. Every handler
		// in the module is a literal at its Handle call.
		if lit, ok := unparen(call.Args[1]).(*ast.FuncLit); ok {
			env.handlers[lit] = true
		}
		return
	}
	path, name := callee.Pkg().Path(), callee.Name()
	var sink, kind string
	switch {
	case path == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Sprint") ||
		strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Append") || name == "Errorf"):
		sink, kind = "fmt."+name, "format"
	case path == "errors" && (name == "New" || name == "Join"):
		sink, kind = "errors."+name, "format"
	case path == "log":
		sink, kind = "log."+name, "format"
	case path == journalPath && (name == "Append" || name == "Compact"):
		sink, kind = "journal."+name, "journal"
	case path == "deta/internal/transport" && (name == "Encode" || name == "CallContext"):
		sink, kind = "transport."+name, "wire"
	default:
		return
	}
	for _, arg := range call.Args {
		label, tainted := env.exprTaint(f, arg)
		if !tainted {
			continue
		}
		switch kind {
		case "format":
			r.Reportf(call.Pos(),
				"key material (%s) reaches %s: key bytes must never be formatted or logged — use rng.Fingerprint for a loggable digest", label, sink)
		case "journal":
			r.Reportf(call.Pos(),
				"key material (%s) reaches %s: the WAL is plaintext on disk and must never record key bytes", label, sink)
		case "wire":
			r.Reportf(call.Pos(), wireLeak, label, sink)
		}
		return
	}
}

// wireStructName returns the message name if t is a module wire struct
// (*Req/*Resp outside the PermKey exemption).
func wireStructName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "deta/") {
		return ""
	}
	name := obj.Name()
	if !strings.HasSuffix(name, "Req") && !strings.HasSuffix(name, "Resp") {
		return ""
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return ""
	}
	return name
}

func (env *taintEnv) checkWireComposite(f taintFact, cl *ast.CompositeLit, r *Reporter) {
	tv, ok := env.pkg.Info.Types[cl]
	if !ok || tv.Type == nil {
		return
	}
	name := wireStructName(tv.Type)
	if name == "" {
		return
	}
	for _, el := range cl.Elts {
		v := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v = kv.Value
		}
		if label, tainted := env.exprTaint(f, v); tainted {
			r.Reportf(v.Pos(),
				"key material (%s) in wire message %s: only the AP PermKey response may carry key bytes", label, name)
			return
		}
	}
}

func (env *taintEnv) checkWireFieldStore(f taintFact, st *ast.AssignStmt, r *Reporter) {
	for i, l := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		sel, ok := unparen(l).(*ast.SelectorExpr)
		if !ok {
			continue
		}
		s, ok := env.pkg.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			continue
		}
		name := wireStructName(s.Recv())
		if name == "" {
			continue
		}
		if label, tainted := env.exprTaint(f, st.Rhs[i]); tainted {
			r.Reportf(l.Pos(),
				"key material (%s) stored into wire message %s: only the AP PermKey response may carry key bytes", label, name)
		}
	}
}

// funcKey names a function for the source/sanitizer/propagator tables:
// pkgpath[.ReceiverType].Name.
func funcKey(f *types.Func) string {
	if f.Pkg() == nil {
		return f.Name()
	}
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return f.Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Pkg().Path() + "." + f.Name()
}

var errorType = types.Universe.Lookup("error").Type()

// carrierType reports whether a value of type t can hold key bytes.
// Numerics, bools, channels, funcs, and error values cannot — treating
// them as carriers would only breed noise.
func carrierType(t types.Type) bool {
	if t == nil {
		return false
	}
	if types.Identical(t, errorType) {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Signature, *types.Chan:
		return false
	}
	return true
}
