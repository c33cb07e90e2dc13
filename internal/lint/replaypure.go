package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
)

// replaypure guards the other half of the crash-safety contract: recovery
// must rebuild the exact pre-crash aggregator state from the journal, and
// fusion must produce bit-identical tensors on every party — so the code
// transitively reachable from the replay roots (RecoverAggregatorNode and
// the WAL record handlers) and from the fusion kernels must be a pure
// function of its inputs. Prepare computes that reachable set once over
// the whole module via the call graph; Run then flags every
// nondeterminism source inside it:
//
//   - wall-clock reads (time.Now / time.Since / time.Until) outside
//     clock.go, the one file allowed to touch the real clock behind the
//     injectable core.Clock;
//   - the unseeded global math/rand source (package-level rand.Intn and
//     friends; a locally seeded *rand.Rand is fine and is how the
//     deterministic shuffle works);
//   - goroutine spawns, whose completion order the replayed run cannot
//     reproduce;
//   - map iteration whose order can reach output — the syntactic maporder
//     checks, rerun here under reachability scoping (the driver then
//     aliases overlapping maporder findings to replaypure so one defect
//     yields one finding).
//
// Call edges stop at deta/internal/parallel (deterministic by
// construction: For joins all workers and the index partition is fixed)
// and deta/internal/journal (the thing being replayed, not a replay
// consumer). Edges through function literals and `go` statements are
// followed — a closure spawned during replay is still replay code.
type ReplayPure struct {
	reach map[*types.Func]string // reachable function -> root it was reached from
}

func (*ReplayPure) Name() string { return "replaypure" }
func (*ReplayPure) Doc() string {
	return "flag nondeterminism (wall clock, global rand, goroutines, map order) reachable from replay roots and fusion kernels"
}

// replayRootNames keys the roots by package: the recovery entry points in
// core, and every fusion kernel (the Aggregate methods) in agg.
var replayRootNames = map[string]map[string]bool{
	"deta/internal/core": {
		"RecoverAggregatorNode": true,
		"applyRecord":           true,
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

// Prepare builds the module call graph restricted to deta packages and
// BFS-marks everything reachable from the roots. Roots are discovered in
// package/file/declaration order and the queue preserves it, so the
// root-provenance recorded for each function is deterministic.
func (a *ReplayPure) Prepare(pkgs []*Package) {
	a.reach = map[*types.Func]string{}
	adj := map[*types.Func][]*types.Func{}
	var queue []*types.Func
	for _, pkg := range pkgs {
		rootSet := replayRootNames[pkg.Path]
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				if rootSet[fd.Name.Name] {
					if _, seen := a.reach[obj]; !seen {
						a.reach[obj] = fd.Name.Name
						queue = append(queue, obj)
					}
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeFunc(pkg, call)
					if callee == nil || callee.Pkg() == nil || !replayEdgeInto(callee.Pkg().Path()) {
						return true
					}
					adj[obj] = append(adj[obj], callee)
					return true
				})
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range adj[fn] {
			if _, seen := a.reach[callee]; seen {
				continue
			}
			a.reach[callee] = a.reach[fn]
			queue = append(queue, callee)
		}
	}
}

// Run checks each replay-reachable declaration in pkg. a.reach is written
// only by Prepare (sequential, before the fan-out) and read here, so
// concurrent per-package Runs are safe.
func (a *ReplayPure) Run(pkg *Package, r *Reporter) {
	if !pathIn(pkg.Path, "deta") {
		return
	}
	for _, file := range pkg.Files {
		pos := pkg.Fset.Position(file.Pos())
		inClockFile := filepath.Base(pos.Filename) == "clock.go"
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			root, reachable := a.reach[obj]
			if obj == nil || !reachable {
				continue
			}
			a.checkFunc(pkg, r, fd, root, inClockFile)
		}
	}
}

func (a *ReplayPure) checkFunc(pkg *Package, r *Reporter, fd *ast.FuncDecl, root string, inClockFile bool) {
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
	// Map-iteration order reaching output is the same defect maporder
	// catches syntactically; rerun those checks under this analyzer's
	// name so the finding carries replay provenance.
	checkMapOrderFunc(pkg, r, fd)
}
