package lint

import (
	"go/ast"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestWalDiscFlagsSeamReorder loads the real deta/internal/core and, in
// memory, moves commitLocked's call to apply above its appendLocked: the
// refactor that compiles, passes every happy-path test and reopens the
// lost-ack crash window. waldisc must report the moved call, and nothing
// on the body as written.
func TestWalDiscFlagsSeamReorder(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := NewLoader().Load(filepath.Join(wd, "..", ".."), "deta/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	if got := Run(pkgs, []Analyzer{WalDisc{}}); len(got) != 0 {
		t.Fatalf("waldisc on the real tree = %v; want no findings", got)
	}

	var body *ast.BlockStmt
	for _, f := range pkgs[0].Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "commitLocked" {
				body = fd.Body
			}
		}
	}
	if body == nil {
		t.Fatal("core declares no commitLocked")
	}
	calls := func(st ast.Stmt, name string) bool {
		found := false
		ast.Inspect(st, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
				found = true
			}
			return !found
		})
		return found
	}
	appendAt := slices.IndexFunc(body.List, func(st ast.Stmt) bool { return calls(st, "appendLocked") })
	applyAt := slices.IndexFunc(body.List, func(st ast.Stmt) bool { return calls(st, "apply") })
	if appendAt < 0 || applyAt <= appendAt {
		t.Fatalf("commitLocked: appendLocked at statement %d, apply at %d; want the append first", appendAt, applyAt)
	}

	orig := body.List
	t.Cleanup(func() { body.List = orig })
	reordered := slices.Delete(slices.Clone(orig), applyAt, applyAt+1)
	body.List = slices.Insert(reordered, appendAt, orig[applyAt])

	at := pkgs[0].Fset.Position(orig[applyAt].Pos())
	findings := Run(pkgs, []Analyzer{WalDisc{}})
	for _, f := range findings {
		if f.Analyzer == "waldisc" && filepath.Base(f.File) == filepath.Base(at.Filename) && f.Line == at.Line {
			return
		}
	}
	t.Fatalf("apply moved above appendLocked: findings %v; want a waldisc finding at %s", findings, at)
}
