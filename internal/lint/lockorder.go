package lint

// LockOrder lifts the per-function lock-effect machinery into a
// module-wide lock-acquisition-ORDER graph and reports cycles as
// potential deadlocks. Nodes are lock *classes* — a mutex identified by
// its owning named type and field path ("core.AggregatorNode.mu") or, for
// package-level mutexes, by "pkg.var" — so ordering is tracked across
// instances, which is exactly the granularity deadlock discipline needs:
// two goroutines locking two *instances* of the same class pair in
// opposite orders deadlock just as surely as two instances of different
// classes. Locals have no class and are invisible here (their ordering is
// not observable across functions).
//
// Edges mean "class B was acquired while some lock of class A was held on
// at least one CFG path". They come from two sources, both solved over the
// module index:
//
//   - direct: a Lock/RLock statement executed with a non-empty may-held
//     set (held sets propagate through the CFG like lockregion's, with the
//     same transfer and the same class-level net lock-effect summary);
//   - transitive: a call to a function whose may-acquire summary
//     (computeLockAcq, over sync call edges at any depth) says it can take
//     class B — the edge anchors at the call site with the callee recorded
//     as provenance.
//
// Cycles (Tarjan SCCs with an internal edge, including self-loops: Go
// mutexes are not reentrant) are reported once each, anchored at the
// earliest edge in source order, with every edge's acquisition site,
// enclosing function, and held-since provenance in the message. A mere
// edge is NOT a finding — consistent A-then-B ordering everywhere is the
// discipline this analyzer exists to protect.
import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

type LockOrder struct {
	classFX map[*types.Func][]classFX
	acq     map[*types.Func]map[string]acqWitness

	// edges is the deduped module-wide order graph in deterministic
	// (source) order; reports maps each cycle finding to the package of
	// its anchor edge. Both are written once in Prepare and read-only
	// afterwards, so the per-package Run fan-out needs no locking.
	edges   []lockEdge
	reports map[*Package][]lockReport
}

// lockEdge records one "to acquired while from held" observation.
type lockEdge struct {
	from, to string
	pos      token.Pos // acquisition site of `to` (or the call reaching it)
	heldPos  token.Pos // acquisition site that put `from` in the held set
	fn       string    // enclosing function, for the message
	via      string    // callee name for transitive edges, "" for direct
	pkg      *Package
}

type lockReport struct {
	pos token.Pos
	msg string
}

func (*LockOrder) Name() string { return "lockorder" }
func (*LockOrder) Doc() string {
	return "build the module-wide lock-acquisition-order graph and flag cycles as potential deadlocks"
}

// Prepare collects the order graph over every function body in the
// module and precomputes the cycle reports.
func (a *LockOrder) Prepare(ix *moduleIndex) {
	a.classFX = ix.classFX
	a.acq = computeLockAcq(ix)
	a.edges = nil
	seen := make(map[[2]string]bool)
	for _, u := range ix.all {
		a.collectEdges(u, seen)
	}
	a.buildReports()
}

func (a *LockOrder) Run(pkg *Package, r *Reporter) {
	for _, rep := range a.reports[pkg] {
		r.Reportf(rep.pos, "%s", rep.msg)
	}
}

// collectEdges runs the may-held class propagation over one function body
// and appends the (from, to) pairs observed at acquisition points. Edge
// dedup keeps the first witness in source order — units arrive in load
// order and blocks in allocation order, so the result is deterministic.
func (a *LockOrder) collectEdges(u *funcUnit, seen map[[2]string]bool) {
	c := buildCFG(u.body())
	transfer := func(f lockFact, n ast.Node) { heldTransfer(u.pkg, a.classFX, lockClass, f, n) }
	in := solveForward(c, lockFact{}, transfer)
	add := func(f lockFact, to string, pos token.Pos, via string) {
		for _, from := range sortedFactKeys(f) {
			key := [2]string{from, to}
			if seen[key] {
				continue
			}
			seen[key] = true
			a.edges = append(a.edges, lockEdge{
				from: from, to: to, pos: pos, heldPos: f[from],
				fn: fnDisplayName(u), via: via, pkg: u.pkg,
			})
		}
	}
	for _, blk := range reachableBlocks(c, in) {
		f := cloneFact(in[blk])
		for _, n := range blk.nodes {
			if len(f) > 0 {
				a.edgesAtNode(u.pkg, f, n, add)
			}
			transfer(f, n)
		}
	}
}

// edgesAtNode emits order edges for one CFG node given the current held
// set: direct Lock/RLock statements, and calls to functions whose
// may-acquire summary is non-empty. Goroutine spawns run on their own
// stack (lock order is a per-goroutine property) and deferred calls run
// at exit, where the inline held set no longer applies — both skipped,
// mirroring lockregion.
func (a *LockOrder) edgesAtNode(pkg *Package, f lockFact, n ast.Node, add func(f lockFact, to string, pos token.Pos, via string)) {
	if st, ok := n.(*ast.ExprStmt); ok {
		if class, op, ok := mutexClassOp(pkg, st.X); ok {
			if op == "Lock" || op == "RLock" {
				add(f, class, st.X.Pos(), "")
			}
			return
		}
	}
	switch n.(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return
	}
	inspectSyncCalls(n, func(call *ast.CallExpr) {
		callee := calleeFunc(pkg, call)
		if callee == nil {
			return
		}
		set := a.acq[callee]
		if len(set) == 0 {
			return
		}
		name := callee.Name()
		if callee.Pkg() != nil && callee.Pkg() != pkg.Types {
			name = callee.Pkg().Name() + "." + name
		}
		for _, class := range sortedAcqKeys(set) {
			w := set[class]
			wp := pkg.Fset.Position(w.pos)
			via := fmt.Sprintf("%s (locks in %s at %s:%d)", name, w.fn, filepath.Base(wp.Filename), wp.Line)
			add(f, class, call.Pos(), via)
		}
	})
}

// buildReports finds strongly connected components of the order graph and
// renders one finding per cycle, anchored at its earliest edge.
func (a *LockOrder) buildReports() {
	a.reports = make(map[*Package][]lockReport)
	adj := make(map[string][]*lockEdge)
	nodeSet := make(map[string]bool)
	for i := range a.edges {
		e := &a.edges[i]
		adj[e.from] = append(adj[e.from], e)
		nodeSet[e.from] = true
		nodeSet[e.to] = true
	}
	nodes := make([]string, 0, len(nodeSet))
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	succs := func(n string) []string {
		var out []string
		for _, e := range adj[n] {
			out = append(out, e.to)
		}
		return out
	}
	for _, comp := range sccs(nodes, succs) {
		inSCC := make(map[string]bool, len(comp))
		for _, n := range comp {
			inSCC[n] = true
		}
		var internal []*lockEdge
		for i := range a.edges {
			e := &a.edges[i]
			if inSCC[e.from] && inSCC[e.to] && (len(comp) > 1 || e.from == e.to) {
				internal = append(internal, e)
			}
		}
		if len(internal) == 0 {
			continue
		}
		sort.Slice(internal, func(i, j int) bool {
			pi := internal[i].pkg.Fset.Position(internal[i].pos)
			pj := internal[j].pkg.Fset.Position(internal[j].pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return pi.Column < pj.Column
		})
		anchor := internal[0]
		cycle := lockCyclePath(anchor, adj, inSCC)
		a.reports[anchor.pkg] = append(a.reports[anchor.pkg], lockReport{
			pos: anchor.pos,
			msg: lockCycleMsg(cycle),
		})
	}
}

// lockCyclePath reconstructs one concrete cycle through the SCC starting
// with the anchor edge: a BFS (deterministic: adjacency lists are in edge
// insertion order) finds the shortest way back from anchor.to to
// anchor.from.
func lockCyclePath(anchor *lockEdge, adj map[string][]*lockEdge, inSCC map[string]bool) []*lockEdge {
	if anchor.from == anchor.to {
		return []*lockEdge{anchor}
	}
	prev := map[string]*lockEdge{anchor.to: nil}
	queue := []string{anchor.to}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == anchor.from {
			break
		}
		for _, e := range adj[n] {
			if !inSCC[e.to] {
				continue
			}
			if _, seen := prev[e.to]; seen {
				continue
			}
			prev[e.to] = e
			queue = append(queue, e.to)
		}
	}
	var back []*lockEdge
	for n := anchor.from; ; {
		e := prev[n]
		if e == nil {
			break
		}
		back = append(back, e)
		n = e.from
	}
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}
	return append([]*lockEdge{anchor}, back...)
}

// lockCycleMsg renders a cycle with full held-set provenance per edge.
func lockCycleMsg(cycle []*lockEdge) string {
	var b strings.Builder
	b.WriteString("potential deadlock: lock-order cycle ")
	b.WriteString(cycle[0].from)
	for _, e := range cycle {
		b.WriteString(" -> ")
		b.WriteString(e.to)
	}
	for _, e := range cycle {
		b.WriteString("; ")
		b.WriteString(e.to)
		if e.via != "" {
			fmt.Fprintf(&b, " acquired via %s at %s in %s", e.via, edgePos(e, e.pos), e.fn)
		} else {
			fmt.Fprintf(&b, " acquired at %s in %s", edgePos(e, e.pos), e.fn)
		}
		fmt.Fprintf(&b, " while holding %s (held since %s)", e.from, edgePos(e, e.heldPos))
	}
	return b.String()
}

func edgePos(e *lockEdge, p token.Pos) string {
	pos := e.pkg.Fset.Position(p)
	return fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
}

func sortedFactKeys(f lockFact) []string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedAcqKeys(set map[string]acqWitness) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
