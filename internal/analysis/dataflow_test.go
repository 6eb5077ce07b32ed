package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// typeCheckFunc parses and type-checks one source file and returns the
// named function's declaration with its package's type info.
func typeCheckFunc(t *testing.T, src, name string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "df.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("type check: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil
}

func TestPostDominates(t *testing.T) {
	src := `package p
func f(cond bool) {
	work()
	if cond {
		commit()
		return
	}
	commit()
}
func work()   {}
func commit() {}`
	fd, info := typeCheckFunc(t, src, "f")
	_ = info
	g := buildCFG(fd.Body)
	isCall := func(b *Block, name string) bool {
		found := false
		inspectShallow(b.Nodes, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
					found = true
				}
			}
			return true
		})
		return found
	}
	var workBlock *Block
	for _, b := range g.Blocks {
		if isCall(b, "work") {
			workBlock = b
		}
	}
	if workBlock == nil {
		t.Fatal("no block calls work")
	}
	// Every path from work() to the exit passes a commit() block.
	if !PostDominates(g, workBlock, func(b *Block) bool { return isCall(b, "commit") }) {
		t.Error("commit set should post-dominate the work block")
	}
	// Nothing post-dominates via a predicate that never matches.
	if PostDominates(g, workBlock, func(b *Block) bool { return false }) {
		t.Error("empty set cannot post-dominate a block with a path to exit")
	}
}

func TestEscapeLite(t *testing.T) {
	src := `package p
func f(sink chan int) (int, *int) {
	kept := 1
	kept++
	ret := 2
	sent := 3
	addr := 4
	captured := 5
	go func() { _ = captured }()
	sink <- sent
	p := &addr
	return ret, p
}`
	fd, info := typeCheckFunc(t, src, "f")
	escaped := EscapeLite(fd.Body, info)
	names := map[string]bool{}
	for v := range escaped {
		names[v.Name()] = true
	}
	for _, want := range []string{"ret", "sent", "addr", "captured", "p"} {
		if !names[want] {
			t.Errorf("%s should escape", want)
		}
	}
	if names["kept"] {
		t.Error("kept does not escape")
	}
}

func TestEscapeWalkSkipsGoStmt(t *testing.T) {
	src := `package p
func f() {
	onlyGo := 1
	alsoOutside := 2
	go func() { _ = onlyGo; _ = alsoOutside }()
	g(alsoOutside)
}
func g(int) {}`
	fd, info := typeCheckFunc(t, src, "f")
	escaped := escapeWalk(fd.Body, info, func(n ast.Node) bool {
		_, ok := n.(*ast.GoStmt)
		return ok
	})
	names := map[string]bool{}
	for v := range escaped {
		names[v.Name()] = true
	}
	if names["onlyGo"] {
		t.Error("a var referenced only inside a go statement must not escape when go is skipped")
	}
	if !names["alsoOutside"] {
		t.Error("a var passed to a call outside the go statement escapes")
	}
}
