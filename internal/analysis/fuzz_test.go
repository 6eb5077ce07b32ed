// Fuzzing for the CFG builder. The builder is deliberately type-free so
// this target can throw arbitrary parseable function bodies at it: the
// contract under fuzz is no panics and structurally sound graphs —
// symmetric edges, reachable-or-pruned blocks, loop sets that contain
// their heads and nothing pruned.
package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

func FuzzCFGBuild(f *testing.F) {
	seeds := []string{
		"",
		"return",
		"x := 1\nreturn x",
		"for {}",
		"for i := 0; i < 10; i++ { x += i }",
		"for v := range ch { _ = v }",
		"if a { return 1 } else { return 2 }",
		"switch x {\ncase 1:\n\ty = 1\n\tfallthrough\ncase 2:\n\ty = 2\ndefault:\n\ty = 3\n}",
		"select {}",
		"select {\ncase <-ch:\ncase ch <- 1:\ndefault:\n}",
		"outer:\nfor {\n\tfor {\n\t\tbreak outer\n\t}\n}",
		"goto done\nx = 1\ndone:\nreturn",
		"defer f()\ndefer g()\npanic(\"x\")",
		"L:\n\tif a {\n\t\tgoto L\n\t}",
		"go func() { for {} }()",
		"for {\n\tswitch {\n\tcase a:\n\t\tcontinue\n\tdefault:\n\t\tbreak\n\t}\n}",
		"x := 1\nreturn x\nunreachable()",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		src := "package p\nfunc f() {\n" + body + "\n}"
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip("body does not parse")
		}
		var fd *ast.FuncDecl
		for _, d := range file.Decls {
			if x, ok := d.(*ast.FuncDecl); ok && x.Body != nil {
				fd = x
				break
			}
		}
		if fd == nil {
			t.Skip("no function survived parsing")
		}
		g := buildCFG(fd.Body) // must not panic
		if g == nil {
			t.Fatal("nil CFG for a non-nil body")
		}
		fuzzCheckCFG(t, g)
	})
}

// fuzzCheckCFG is checkCFG without the *testing.T helper conveniences
// that would misattribute failures under the fuzzer; same invariants.
func fuzzCheckCFG(t *testing.T, g *CFG) {
	index := map[*Block]bool{}
	for _, b := range g.Blocks {
		if b == nil {
			t.Fatal("nil block in Blocks")
		}
		index[b] = true
	}
	if !index[g.Entry] || !index[g.Exit] {
		t.Fatal("entry or exit missing from Blocks")
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if !index[s] {
				t.Fatalf("block %d keeps a pruned successor", b.Index)
			}
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not mirrored in preds", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !index[p] {
				t.Fatalf("block %d keeps a pruned predecessor", b.Index)
			}
		}
	}
	// Reachable-or-pruned: prune's contract is that every surviving
	// block except Exit is reachable from Entry.
	reach := map[*Block]bool{g.Entry: true}
	queue := []*Block{g.Entry}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, s := range b.Succs {
			if !reach[s] {
				reach[s] = true
				queue = append(queue, s)
			}
		}
	}
	for _, b := range g.Blocks {
		if !reach[b] && b != g.Exit {
			t.Fatalf("block %d survives prune but is unreachable from entry", b.Index)
		}
	}
	for _, l := range g.Loops {
		if l.Head == nil || !l.Blocks[l.Head] {
			t.Fatal("loop head missing from its own block set")
		}
		for b := range l.Blocks {
			if !index[b] {
				t.Fatal("loop set retains a pruned block")
			}
		}
	}
	// The solver must terminate and cover every block on whatever graph
	// the builder produced, and its fixed point must agree with the
	// reachability computed above.
	facts := Solve[bool](g, reachProblem{})
	if len(facts.In) != len(g.Blocks) {
		t.Fatalf("solver produced %d facts for %d blocks", len(facts.In), len(g.Blocks))
	}
	for _, b := range g.Blocks {
		if facts.Out[b] != reach[b] {
			t.Fatalf("block %d: solved reachability %v, want %v", b.Index, facts.Out[b], reach[b])
		}
	}
}

// reachProblem is the smallest forward problem: a block's fact is whether
// it is reachable from the entry.
type reachProblem struct{}

func (reachProblem) Boundary() bool                  { return true }
func (reachProblem) Bottom() bool                    { return false }
func (reachProblem) Transfer(_ *Block, in bool) bool { return in }
func (reachProblem) Merge(a, b bool) bool            { return a || b }
func (reachProblem) Equal(a, b bool) bool            { return a == b }
