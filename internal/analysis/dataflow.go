// Generic dataflow over CFGs: a direction-agnostic worklist solver
// parameterized on the fact lattice, plus the three canned analyses the
// rules share — reaching definitions (which assignments of a local can
// reach a use), escape-lite (which locals leak out of their function),
// and post-dominance by a block set (does every path from here to the
// exit pass through the set — the commitpath rule's core question,
// answered as its contrapositive by blockReaches).
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Direction selects how facts propagate through the graph.
type Direction int

const (
	// Forward propagates entry→exit: a block's input is the merge of its
	// predecessors' outputs.
	Forward Direction = iota
	// Backward propagates exit→entry: a block's input is the merge of
	// its successors' outputs.
	Backward
)

// Problem defines one dataflow analysis over fact type F. Merge must be
// monotone and Transfer a monotone function of its input, or the solver
// may not terminate.
type Problem[F any] interface {
	Direction() Direction
	// Boundary is the fact entering the graph: at Entry for a forward
	// problem, at Exit for a backward one.
	Boundary() F
	// Bottom is the initial fact of every other block, the identity of
	// Merge.
	Bottom() F
	Transfer(b *Block, in F) F
	Merge(a, b F) F
	Equal(a, b F) bool
}

// Facts holds the solver's fixed point: In is the fact at each block's
// propagation entry (block start for forward problems, block end for
// backward ones) and Out the fact after its transfer function.
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
	boundary := g.Entry
	next := func(b *Block) []*Block { return b.Succs }
	prev := func(b *Block) []*Block { return b.Preds }
	if p.Direction() == Backward {
		boundary = g.Exit
		next, prev = prev, next
	}
	for _, b := range g.Blocks {
		f.In[b] = p.Bottom()
		f.Out[b] = p.Transfer(b, f.In[b])
	}
	if boundary != nil {
		f.In[boundary] = p.Boundary()
		f.Out[boundary] = p.Transfer(boundary, f.In[boundary])
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
		if b == boundary {
			in = p.Boundary()
		}
		for _, q := range prev(b) {
			in = p.Merge(in, f.Out[q])
		}
		out := p.Transfer(b, in)
		f.In[b] = in
		if p.Equal(out, f.Out[b]) {
			continue
		}
		f.Out[b] = out
		for _, s := range next(b) {
			if !inQueue[s] {
				inQueue[s] = true
				queue = append(queue, s)
			}
		}
	}
	return f
}

// BitSet is a fixed-capacity bit vector, the fact representation of the
// set-based analyses.
type BitSet []uint64

func NewBitSet(n int) BitSet { return make(BitSet, (n+63)/64) }

func (s BitSet) Set(i int)      { s[i/64] |= 1 << (i % 64) }
func (s BitSet) Clear(i int)    { s[i/64] &^= 1 << (i % 64) }
func (s BitSet) Has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }

func (s BitSet) Clone() BitSet {
	out := make(BitSet, len(s))
	copy(out, s)
	return out
}

func (s BitSet) Union(t BitSet) BitSet {
	out := s.Clone()
	for i := range t {
		out[i] |= t[i]
	}
	return out
}

func (s BitSet) Equal(t BitSet) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// DefSite is one definition of a function-local variable: an
// assignment, a declaration with value, a range binding, or a
// parameter (Node is then the *ast.Field).
type DefSite struct {
	Var *types.Var
	// Node is the defining statement or field.
	Node ast.Node
	// Rhs is the assigned expression when the definition has a single
	// resolvable source (x := e, x = e), nil otherwise.
	Rhs ast.Expr
}

// ReachingDefs is the solved reaching-definitions problem of one
// function: for every block, which definition sites may still be live
// at its entry.
type ReachingDefs struct {
	Sites []DefSite
	facts Facts[BitSet]
	// sitesOf groups site indices by variable, for the kill sets and
	// per-variable queries.
	sitesOf map[*types.Var][]int
	gen     map[*Block]BitSet
	kill    map[*Block]BitSet
}

func (p *ReachingDefs) Direction() Direction { return Forward }
func (p *ReachingDefs) Boundary() BitSet {
	// Parameters and receivers are defined at entry.
	b := NewBitSet(len(p.Sites))
	for i, s := range p.Sites {
		if _, ok := s.Node.(*ast.Field); ok {
			b.Set(i)
		}
	}
	return b
}
func (p *ReachingDefs) Bottom() BitSet          { return NewBitSet(len(p.Sites)) }
func (p *ReachingDefs) Merge(a, b BitSet) BitSet { return a.Union(b) }
func (p *ReachingDefs) Equal(a, b BitSet) bool   { return a.Equal(b) }
func (p *ReachingDefs) Transfer(b *Block, in BitSet) BitSet {
	out := in.Clone()
	if k := p.kill[b]; k != nil {
		for i := range out {
			out[i] &^= k[i]
		}
	}
	if g := p.gen[b]; g != nil {
		for i := range out {
			out[i] |= g[i]
		}
	}
	return out
}

// SolveReachingDefs collects the definition sites of fn's locals and
// solves the forward may-reach problem over g. decl supplies the
// parameter fields (it may be a *ast.FuncDecl or *ast.FuncLit).
func SolveReachingDefs(g *CFG, decl ast.Node, info *types.Info) *ReachingDefs {
	p := &ReachingDefs{sitesOf: map[*types.Var][]int{}, gen: map[*Block]BitSet{}, kill: map[*Block]BitSet{}}
	if g == nil {
		return p
	}
	addSite := func(s DefSite) int {
		idx := len(p.Sites)
		p.Sites = append(p.Sites, s)
		p.sitesOf[s.Var] = append(p.sitesOf[s.Var], idx)
		return idx
	}
	// Parameter and receiver definitions.
	var ftype *ast.FuncType
	switch d := decl.(type) {
	case *ast.FuncDecl:
		ftype = d.Type
		if d.Recv != nil {
			for _, f := range d.Recv.List {
				for _, name := range f.Names {
					if v, ok := info.Defs[name].(*types.Var); ok {
						addSite(DefSite{Var: v, Node: f})
					}
				}
			}
		}
	case *ast.FuncLit:
		ftype = d.Type
	}
	if ftype != nil && ftype.Params != nil {
		for _, f := range ftype.Params.List {
			for _, name := range f.Names {
				if v, ok := info.Defs[name].(*types.Var); ok {
					addSite(DefSite{Var: v, Node: f})
				}
			}
		}
	}
	// Definition sites inside blocks, in order; the per-block last def
	// of a variable is the gen, every other site of the variable the kill.
	type blockDef struct {
		b   *Block
		idx int
	}
	var defs []blockDef
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			eachDef(n, info, func(v *types.Var, node ast.Node, rhs ast.Expr) {
				defs = append(defs, blockDef{b, addSite(DefSite{Var: v, Node: node, Rhs: rhs})})
			})
		}
	}
	n := len(p.Sites)
	for _, d := range defs {
		if p.gen[d.b] == nil {
			p.gen[d.b] = NewBitSet(n)
			p.kill[d.b] = NewBitSet(n)
		}
	}
	for _, d := range defs {
		site := p.Sites[d.idx]
		gen, kill := p.gen[d.b], p.kill[d.b]
		// A later def in the same block kills the earlier one: clear all
		// previously generated sites of this var before setting ours.
		for _, other := range p.sitesOf[site.Var] {
			if other != d.idx {
				gen.Clear(other)
				kill.Set(other)
			}
		}
		gen.Set(d.idx)
	}
	p.facts = Solve[BitSet](g, p)
	return p
}

// DefsOf returns the definition sites of v that may reach the entry of
// block b.
func (p *ReachingDefs) DefsOf(b *Block, v *types.Var) []DefSite {
	in := p.facts.In[b]
	if in == nil {
		return nil
	}
	var out []DefSite
	for _, idx := range p.sitesOf[v] {
		if in.Has(idx) {
			out = append(out, p.Sites[idx])
		}
	}
	return out
}

// AnyDef reports whether any definition site of v anywhere in the
// function satisfies pred — the flow-insensitive projection, for rules
// that only need "was v ever bound to such a value".
func (p *ReachingDefs) AnyDef(v *types.Var, pred func(DefSite) bool) bool {
	for _, idx := range p.sitesOf[v] {
		if pred(p.Sites[idx]) {
			return true
		}
	}
	return false
}

// eachDef reports the local-variable definitions a statement performs.
// Package-level variables are excluded: reaching definitions is a
// per-function analysis, and the rules treat globals through their own
// lens (mutglobal).
func eachDef(n ast.Node, info *types.Info, f func(v *types.Var, node ast.Node, rhs ast.Expr)) {
	local := func(id *ast.Ident) *types.Var {
		var obj types.Object
		if d := info.Defs[id]; d != nil {
			obj = d
		} else if u := info.Uses[id]; u != nil {
			obj = u
		}
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() || v.IsField() {
			return nil
		}
		return v
	}
	switch s := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range s.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v := local(id)
			if v == nil {
				continue
			}
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			f(v, s, rhs)
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(s.X).(*ast.Ident); ok {
			if v := local(id); v != nil {
				f(v, s, nil)
			}
		}
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				v := local(name)
				if v == nil {
					continue
				}
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				f(v, s, rhs)
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{s.Key, s.Value} {
			if e == nil {
				continue
			}
			if id, ok := ast.Unparen(e).(*ast.Ident); ok {
				if v := local(id); v != nil {
					f(v, s, nil)
				}
			}
		}
	}
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
