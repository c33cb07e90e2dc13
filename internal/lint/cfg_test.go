package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseBody parses src as a file and returns the CFG of the function
// named fn.
func parseBody(t *testing.T, src, fn string) *cfg {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "cfg_test_src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return buildCFG(fd.Body)
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil
}

// blockWithCall finds the block holding a node that names name.
func blockWithCall(t *testing.T, c *cfg, name string) *cfgBlock {
	t.Helper()
	for _, blk := range c.blocks {
		for _, n := range blk.nodes {
			found := false
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok && id.Name == name {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	t.Fatalf("no block calls %s", name)
	return nil
}

// reaches reports whether some path leads from start to target without
// entering any avoided block.
func reaches(start, target *cfgBlock, avoid ...*cfgBlock) bool {
	seen := map[*cfgBlock]bool{}
	for _, blk := range avoid {
		seen[blk] = true
	}
	stack := []*cfgBlock{start}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		if blk == target {
			return true
		}
		seen[blk] = true
		stack = append(stack, blk.succs...)
	}
	return false
}

func TestCFGEarlyReturn(t *testing.T) {
	c := parseBody(t, `package p
func f(ok bool) {
	before()
	if !ok {
		bail()
		return
	}
	after()
}
func before() {}
func bail()   {}
func after()  {}
`, "f")
	bail, after := blockWithCall(t, c, "bail"), blockWithCall(t, c, "after")
	if blockWithCall(t, c, "before") != c.entry {
		t.Errorf("the prefix must sit in the entry block")
	}
	if !reaches(c.entry, after) || !reaches(after, c.exit) {
		t.Errorf("the fallthrough path must run entry -> after -> exit")
	}
	if reaches(bail, after) || !reaches(bail, c.exit) {
		t.Errorf("the early-return arm must go to exit without reaching after")
	}
}

func TestCFGEarlyReturnBypass(t *testing.T) {
	// A call after an early return is not on every path to exit.
	c := parseBody(t, `package p
func f(ok bool) {
	if !ok {
		return
	}
	hit()
}
func hit() {}
`, "f")
	if !reaches(c.entry, c.exit, blockWithCall(t, c, "hit")) {
		t.Errorf("the early return must bypass hit")
	}
}

func TestCFGDefer(t *testing.T) {
	// A deferred call is collected for function exit and its statement
	// stays in the block that registers it: a branch-local defer is not
	// on every path to the join.
	c := parseBody(t, `package p
func f(ok bool) {
	if ok {
		defer cleanup()
	}
	work()
}
func cleanup() {}
func work()    {}
`, "f")
	if len(c.defers) != 1 {
		t.Fatalf("got %d defers, want 1", len(c.defers))
	}
	if id, ok := c.defers[0].Fun.(*ast.Ident); !ok || id.Name != "cleanup" {
		t.Errorf("defers[0] = %v, want the cleanup call", c.defers[0].Fun)
	}
	deferBlk, work := blockWithCall(t, c, "cleanup"), blockWithCall(t, c, "work")
	if deferBlk == c.entry || !reaches(c.entry, work, deferBlk) {
		t.Errorf("a branch-local defer must not be on every path to the join")
	}
}

func TestCFGLoop(t *testing.T) {
	c := parseBody(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		hit()
	}
	done()
}
func hit()  {}
func done() {}
`, "f")
	body, done := blockWithCall(t, c, "hit"), blockWithCall(t, c, "done")
	if !reaches(body.succs[0], body) {
		t.Errorf("the loop body must be re-entered through its back edge")
	}
	if !reaches(body, done) {
		t.Errorf("the loop body must reach the code after the loop")
	}
}

func TestCFGLoopZeroIteration(t *testing.T) {
	// A call only inside a conditional loop body is skipped on the
	// zero-iteration path.
	c := parseBody(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		hit()
	}
}
func hit() {}
`, "f")
	if !reaches(c.entry, c.exit, blockWithCall(t, c, "hit")) {
		t.Errorf("the zero-iteration path must skip the loop body")
	}
}

func TestCFGIfElse(t *testing.T) {
	c := parseBody(t, `package p
func f(ok bool) {
	if ok {
		left()
	} else {
		right()
	}
	join()
}
func left()  {}
func right() {}
func join()  {}
`, "f")
	left, right, join := blockWithCall(t, c, "left"), blockWithCall(t, c, "right"), blockWithCall(t, c, "join")
	if !reaches(c.entry, join, left) || !reaches(c.entry, join, right) {
		t.Errorf("each arm must reach the join on its own")
	}
	if reaches(c.entry, join, left, right) {
		t.Errorf("every path to the join must pass through an arm")
	}
}

func TestCFGDeadCodeAfterReturn(t *testing.T) {
	// Statements after a return land in a dead continuation block: it
	// exists, but nothing reaches it from entry.
	c := parseBody(t, `package p
func f() {
	live()
	return
	dead()
}
func live() {}
func dead() {}
`, "f")
	if dead := blockWithCall(t, c, "dead"); reaches(c.entry, dead) {
		t.Errorf("code after return must be unreachable from entry")
	}
	if !reaches(blockWithCall(t, c, "live"), c.exit) {
		t.Errorf("the return must reach exit")
	}
}
