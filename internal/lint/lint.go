// Package lint is deta's in-tree static-analysis framework: a small
// analyzer interface over go/ast + go/types (no golang.org/x/tools), the
// project-specific analyzers that enforce DeTA's security and determinism
// invariants, and the package loader that feeds them.
//
// The enforced invariants (see DESIGN.md §10):
//
//   - errdiscipline:  no silently dropped Sync/Close/Write/Commit errors on
//     the durability path
//   - ctxplumb:       RPC/fleet surfaces take a caller context, first, and
//     never mint context.Background() internally
//   - keytaint:       key material never reaches logs, error strings, the
//     journal, or wire messages other than the AP PermKey response
//   - lockregion:     no network/disk I/O on any CFG path holding a mutex
//     in core (the WAL commit is the sanctioned exception)
//   - ctxflow:        exported transport/core functions that transitively
//     perform network I/O take a context.Context
//   - lockorder:      the module-wide lock-acquisition-order graph is
//     acyclic (cycles are potential deadlocks)
//   - goleak:         no goroutine is spawned into a body that can block
//     forever on channel operations with no escape edge
//   - allocfree:      functions annotated //perf:hotpath (and their
//     synchronous callees) perform no allocations beyond the sanctioned,
//     acknowledged sites
//   - waldisc:        only apply writes durable aggregator state, only
//     replay and commitLocked call it, and commitLocked appends to the
//     journal first (WAL-before-ack)
//   - replaypure:     no nondeterminism source (wall clock, global rand,
//     goroutines, observable map order) is reachable from replay roots or
//     fusion kernels, and no observable map order in the deterministic
//     packages
//   - clockdisc:      internal/core and cmd never read the wall clock or
//     arm timers directly — all time flows through the injectable
//     core.Clock
//
// By-value copies of locks are go vet's copylocks check, not ours.
//
// Run builds one module index (index.go) before any analyzer runs: every
// function unit of every loaded package and one superset call graph. The
// analyzers that reason across functions receive it through the Preparer
// hook, and every call-graph summary they need — transitive I/O,
// class-keyed lock effects and acquisitions, allocation, blocking, key
// taint — is solved on it by one solver, solve: callees
// first, so acyclic helper chains settle at any depth in one pass, and
// only recursive cycles iterate. A cycle that does not settle is reported
// as a finding of the pseudo-analyzer "lintsolver", never used as if it
// were final. keytaint, lockregion, ctxflow, lockorder, goleak, and
// allocfree then run on per-function control-flow graphs (cfg.go,
// dataflow.go); replaypure walks the call graph from the replay roots;
// waldisc and clockdisc are syntactic.
//
// A finding on a line can be acknowledged — never silently — with a
// comment on that line or the line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"deta/internal/parallel"
)

// Package is one loaded, type-checked package as the analyzers see it.
// Test files (_test.go) are never included: the invariants guard
// production paths, and tests legitimately use context.Background(),
// best-effort Closes, and seeded math/rand.
type Package struct {
	Path  string // import path ("deta/internal/core")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Finding is one analyzer hit, position-resolved for file:line output.
type Finding struct {
	Analyzer string
	Pos      token.Position
	File     string
	Line     int
	Col      int
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
}

// Reporter collects findings for one (package, analyzer) run.
type Reporter struct {
	analyzer string
	pkg      *Package
	mu       sync.Mutex
	findings []Finding
}

// Reportf records a finding at pos.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	f := newFinding(r.analyzer, r.pkg.Fset.Position(pos), fmt.Sprintf(format, args...))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.findings = append(r.findings, f)
}

// Analyzer is one invariant checker. Run inspects a single package and
// reports findings; it must be safe to call concurrently for different
// packages.
type Analyzer interface {
	Name() string
	Doc() string
	Run(pkg *Package, r *Reporter)
}

// Preparer is implemented by analyzers that need module-wide facts: Run
// calls Prepare once with the module index before fanning out, so
// call-graph summaries can cross package boundaries. Run may only be
// called after Prepare.
type Preparer interface {
	Prepare(ix *moduleIndex)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		ErrDiscipline{},
		CtxPlumb{},
		&KeyTaint{},
		&LockRegion{},
		&CtxFlow{},
		&LockOrder{},
		&GoLeak{},
		&AllocFree{},
		WalDisc{},
		&ReplayPure{},
		ClockDisc{},
	}
}

// Run executes the analyzers over the packages (concurrently across
// packages, after a sequential Prepare round on the module index),
// applies //lint:ignore suppression, and returns the surviving findings
// sorted by position. Malformed ignore directives (no analyzer name or no
// reason) are reported as findings of the pseudo-analyzer "lintignore",
// summaries that did not settle as findings of "lintsolver".
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	ix := newIndex(pkgs)
	for _, a := range analyzers {
		if p, ok := a.(Preparer); ok {
			p.Prepare(ix)
		}
	}
	// Per-package fan-out over the shared worker pool (bounded, unlike
	// the old one-goroutine-per-package spawn). Each package's findings
	// land in its own slot, so the pre-sort order is already independent
	// of scheduling; the final total-order sort (file, line, col,
	// analyzer, message) makes the output canonical byte-for-byte across
	// runs and worker counts.
	results := make([][]Finding, len(pkgs))
	parallel.For(len(pkgs), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pkg := pkgs[i]
			sup, bad := suppressions(pkg)
			var local []Finding
			for _, a := range analyzers {
				r := &Reporter{analyzer: a.Name(), pkg: pkg}
				a.Run(pkg, r)
				for _, f := range r.findings {
					if sup[supKey{f.Analyzer, f.File, f.Line}] {
						continue
					}
					local = append(local, f)
				}
			}
			results[i] = append(local, bad...)
		}
	})
	all := ix.unsettled
	for _, fs := range results {
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return all
}

type supKey struct {
	analyzer string
	file     string
	line     int
}

// suppressions scans a package's comments for //lint:ignore directives.
// A directive suppresses the named analyzer on its own line and on the
// following line (the usual "comment above the statement" placement).
func suppressions(pkg *Package) (map[supKey]bool, []Finding) {
	sup := make(map[supKey]bool)
	var bad []Finding
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					bad = append(bad, Finding{
						Analyzer: "lintignore",
						Pos:      pos,
						File:     pos.Filename,
						Line:     pos.Line,
						Col:      pos.Column,
						Message:  "malformed directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				sup[supKey{fields[0], pos.Filename, pos.Line}] = true
				sup[supKey{fields[0], pos.Filename, pos.Line + 1}] = true
			}
		}
	}
	return sup, bad
}

// exported reports whether a function declaration is part of the package's
// exported surface (exported name; for methods, an exported receiver type
// too).
func exported(fn *ast.FuncDecl) bool {
	if !fn.Name.IsExported() {
		return false
	}
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return true
	}
	t := fn.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true
		}
	}
}

// pathIn reports whether importPath is pkg or a subpackage of pkg.
func pathIn(importPath string, pkgs ...string) bool {
	for _, p := range pkgs {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}
