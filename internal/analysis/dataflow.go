// Generic dataflow over CFGs: a forward worklist solver parameterized on
// the fact lattice, plus the two canned analyses the rules share —
// escape-lite (which locals leak out of their function) and post-dominance
// by a block set (does every path from here to the exit pass through the
// set — the commitpath rule's core question, answered as its
// contrapositive by blockReaches).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Problem defines one forward dataflow analysis over fact type F: a
// block's input is the merge of its predecessors' outputs. Merge must be
// monotone and Transfer a monotone function of its input, or the solver may
// not terminate.
type Problem[F any] interface {
	// Boundary is the fact entering the graph at Entry.
	Boundary() F
	// Bottom is the initial fact of every other block, the identity of
	// Merge.
	Bottom() F
	Transfer(b *Block, in F) F
	Merge(a, b F) F
	Equal(a, b F) bool
}

// Facts holds the solver's fixed point: In is the fact at each block's
// start and Out the fact after its transfer function.
type Facts[F any] struct {
	In  map[*Block]F
	Out map[*Block]F
}

// Solve runs the worklist algorithm to a fixed point.
func Solve[F any](g *CFG, p Problem[F]) Facts[F] {
	f := Facts[F]{In: map[*Block]F{}, Out: map[*Block]F{}}
	if g == nil {
		return f
	}
	for _, b := range g.Blocks {
		f.In[b] = p.Bottom()
		f.Out[b] = p.Transfer(b, f.In[b])
	}
	if g.Entry != nil {
		f.In[g.Entry] = p.Boundary()
		f.Out[g.Entry] = p.Transfer(g.Entry, f.In[g.Entry])
	}
	queue := append([]*Block(nil), g.Blocks...)
	inQueue := map[*Block]bool{}
	for _, b := range queue {
		inQueue[b] = true
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		inQueue[b] = false
		in := p.Bottom()
		if b == g.Entry {
			in = p.Boundary()
		}
		for _, q := range b.Preds {
			in = p.Merge(in, f.Out[q])
		}
		out := p.Transfer(b, in)
		f.In[b] = in
		if p.Equal(out, f.Out[b]) {
			continue
		}
		f.Out[b] = out
		for _, s := range b.Succs {
			if !inQueue[s] {
				inQueue[s] = true
				queue = append(queue, s)
			}
		}
	}
	return f
}

// EscapeLite computes, per function-local variable, whether its value
// may leave the function: returned, passed as a call argument, sent on
// a channel, assigned through a pointer/field/index/global, captured by
// a nested function literal, or having its address taken in a non-call
// position. It is an over-approximation by a plain AST walk — precise
// enough for "does this goroutine handle reach the caller", the
// question goroleak asks.
func EscapeLite(body *ast.BlockStmt, info *types.Info) map[*types.Var]bool {
	return escapeWalk(body, info, nil)
}

// escapeWalk is EscapeLite with a skip predicate: subtrees for which
// skip returns true are not walked at all. goroleak uses it to exclude
// go statements — state referenced only by the spawned goroutine itself
// never reaches the caller, so it must not count as an escape.
func escapeWalk(body *ast.BlockStmt, info *types.Info, skip func(ast.Node) bool) map[*types.Var]bool {
	escaped := map[*types.Var]bool{}
	if body == nil {
		return escaped
	}
	localOf := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() || v.IsField() {
			return nil
		}
		return v
	}
	mark := func(e ast.Expr) {
		if v := localOf(e); v != nil {
			escaped[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if skip != nil && n != nil && skip(n) {
			return false
		}
		switch nn := n.(type) {
		case *ast.FuncLit:
			// Everything a literal references from the enclosing scope is
			// captured: any identifier it uses that was declared before
			// the literal itself counts as escaped.
			ast.Inspect(nn.Body, func(c ast.Node) bool {
				if id, ok := c.(*ast.Ident); ok {
					if v := localOf(id); v != nil && v.Pos() < nn.Pos() {
						escaped[v] = true
					}
				}
				return true
			})
			return false
		case *ast.ReturnStmt:
			for _, r := range nn.Results {
				mark(r)
			}
		case *ast.CallExpr:
			for _, a := range nn.Args {
				mark(a)
			}
		case *ast.SendStmt:
			mark(nn.Value)
		case *ast.UnaryExpr:
			if nn.Op == token.AND {
				mark(nn.X)
			}
		case *ast.AssignStmt:
			// x.f = v, *p = v, m[k] = v, and assignments to globals all
			// let the RHS out; plain local-to-local stays in.
			for i, lhs := range nn.Lhs {
				if i >= len(nn.Rhs) {
					break
				}
				if localOf(lhs) != nil {
					continue
				}
				if _, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.Defs[ast.Unparen(lhs).(*ast.Ident)] != nil {
					continue // := of a new local
				}
				mark(nn.Rhs[i])
			}
		case *ast.CompositeLit:
			for _, e := range nn.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					mark(kv.Value)
				} else {
					mark(e)
				}
			}
		}
		return true
	})
	return escaped
}

// PostDominates reports whether every path from block b to the exit
// passes through a block satisfying the dom predicate (b itself is not
// tested). It is the set-generalized post-dominance query, answered by
// its contrapositive: b is post-dominated by the set exactly when the
// exit is unreachable while avoiding it.
func PostDominates(g *CFG, b *Block, dom func(*Block) bool) bool {
	if g == nil || g.Exit == nil {
		return false
	}
	var starts []*Block
	for _, s := range b.Succs {
		if !dom(s) {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		return true
	}
	return !blockReaches(starts, g.Exit, dom)
}
