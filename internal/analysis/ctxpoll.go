package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtxPoll enforces the pipeline's cancellation invariant: every loop
// that can block or iterate unboundedly inside a stage implementation
// or the exec scheduler must reach a cancellation poll on every path
// through the loop. PR 3 threaded cooperative cancellation through the
// detector, DFS, and FFT loops, and PR 5 centralized it on the exec
// scheduler's Poll/Tick schedule; a loop with a poll-free cycle undoes
// that work — a cancelled mine keeps burning CPU until the loop happens
// to finish.
//
// Scope. Loops lexically inside (a) methods of types implementing a
// package's unexported `stage` interface (the pipeline seam, shared
// with the stagestate rule) and the function literals nested in them,
// and (b) any function of a package whose import path ends in
// "internal/exec".
//
// A loop needs metering when its body performs work that can block or
// grow with the input: a channel operation or select, a go statement, a
// nested loop, a `for {}` without condition, or any call that is not a
// builtin, a conversion, or a call into the polling machinery itself.
// Loops over plain arithmetic (no calls, no channels) are exempt.
//
// A poll is a call to a method named Poll or Tick (the exec scheduler's
// schedule — matching is by name so fixture packages need not import
// the real scheduler), a context.Context Err call, or a receive from a
// context.Context Done channel. Polls count transitively: a call to a
// function whose body (transitively) polls is itself a poll, so a loop
// driving sched.Run or conv.LagMatchCountsExec is metered even though the
// literal Poll sits in the callee. The check is a dataflow
// question on the CFG: the loop fails when a cycle through its header
// avoids every polling block.
type CtxPoll struct{}

func (CtxPoll) Name() string { return "ctxpoll" }
func (CtxPoll) Doc() string {
	return "require a cancellation poll on every path through blocking/unbounded loops in stage and scheduler code"
}

func (CtxPoll) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	mayPoll := mayPollFuncs(m)

	type finding struct {
		pos   token.Pos
		where string
	}
	var finds []finding
	for _, fi := range m.Functions() {
		if !ctxPollInScope(fi) {
			continue
		}
		info := fi.Pkg.Info
		isPollBlock := func(b *Block) bool { return blockPolls(b, info, mayPoll) }
		for _, loop := range fi.CFG.Loops {
			if !loopNeedsMetering(fi.CFG, loop, info, mayPoll) {
				continue
			}
			if loopMetered(loop, isPollBlock) {
				continue
			}
			finds = append(finds, finding{loop.Stmt.Pos(), fi.Name()})
		}
	}
	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		report(f.pos, "loop in %s can block or iterate unboundedly on a poll-free path; call the scheduler's Poll/Tick or check ctx.Err on every iteration", f.where)
	}
}

// ctxPollInScope reports whether the function's loops fall under the
// cancellation invariant.
func ctxPollInScope(fi *FuncInfo) bool {
	if strings.HasSuffix(fi.Pkg.Path, "internal/exec") {
		return true
	}
	iface := stageInterface(fi.Pkg)
	if iface == nil || fi.Decl == nil || fi.Decl.Recv == nil {
		return false
	}
	obj, ok := fi.Pkg.Info.Defs[fi.Decl.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv().Type()
	return types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)
}

// loopMetered reports whether every cycle through the loop header
// passes a polling block.
func loopMetered(loop *Loop, isPoll func(*Block) bool) bool {
	if isPoll(loop.Head) {
		return true
	}
	// A poll-free cycle exists when the header can re-reach itself while
	// staying inside the loop and avoiding polling blocks.
	avoid := func(b *Block) bool { return !loop.Blocks[b] || isPoll(b) }
	var starts []*Block
	for _, s := range loop.Head.Succs {
		if loop.Blocks[s] && !isPoll(s) {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		return true
	}
	return !blockReaches(starts, loop.Head, avoid)
}

// loopNeedsMetering reports whether the loop's body can block or
// iterate unboundedly.
func loopNeedsMetering(g *CFG, loop *Loop, info *types.Info, mayPoll map[*types.Func]bool) bool {
	if fs, ok := loop.Stmt.(*ast.ForStmt); ok && fs.Cond == nil {
		return true // for {} — unbounded by construction
	}
	// A nested loop inside this one is work.
	for _, other := range g.Loops {
		if other != loop && other.Head != nil && loop.Blocks[other.Head] {
			return true
		}
	}
	work := false
	for b := range loop.Blocks {
		if work {
			break
		}
		inspectShallow(b.Nodes, func(n ast.Node) bool {
			if work {
				return false
			}
			switch nn := n.(type) {
			case *ast.SendStmt, *ast.SelectStmt, *ast.GoStmt:
				work = true
				return false
			case *ast.UnaryExpr:
				if nn.Op == token.ARROW {
					work = true
					return false
				}
			case *ast.RangeStmt:
				// A range over a channel blocks on every iteration.
				if info != nil {
					if tv, ok := info.Types[nn.X]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							work = true
							return false
						}
					}
				}
			case *ast.CallExpr:
				if callIsWork(nn, info, mayPoll) {
					work = true
					return false
				}
			}
			return true
		})
	}
	return work
}

// callIsWork reports whether the call can take real time: anything but
// builtins, conversions, and calls into the polling machinery.
func callIsWork(call *ast.CallExpr, info *types.Info, mayPoll map[*types.Func]bool) bool {
	if info != nil {
		if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
			return false // conversion
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
				return false
			}
		}
	}
	if isPollCall(call, info, mayPoll) {
		return false
	}
	return true
}

// isPollCall reports whether the call checks cancellation: a Poll/Tick
// method (name-based — the scheduler convention), ctx.Err / a receive
// of ctx.Done on a context.Context, or a call to a function whose body
// transitively polls.
func isPollCall(call *ast.CallExpr, info *types.Info, mayPoll map[*types.Func]bool) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		switch sel.Sel.Name {
		case "Poll", "Tick":
			return true
		case "Err", "Done":
			if info != nil {
				if tv, ok := info.Types[sel.X]; ok && namedFrom(tv.Type, "context", "Context") {
					return true
				}
			}
		}
	}
	if info != nil && mayPoll != nil {
		if fn, ok := calleeObject(info, call).(*types.Func); ok && mayPoll[fn] {
			return true
		}
	}
	return false
}

// blockPolls reports whether the block contains a polling node.
func blockPolls(b *Block, info *types.Info, mayPoll map[*types.Func]bool) bool {
	polls := false
	inspectShallow(b.Nodes, func(n ast.Node) bool {
		if polls {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isPollCall(call, info, mayPoll) {
			polls = true
			return false
		}
		return true
	})
	return polls
}

// mayPollFuncs computes the module's transitive may-poll set: a
// declared function polls when its body contains a primitive poll, or
// calls (directly or through any chain of resolvable calls) a function
// that does. Calls through function values and interface methods are
// not resolved — the set under-approximates, so a loop is never excused
// by an unprovable poll.
func mayPollFuncs(m *Module) map[*types.Func]bool {
	type node struct {
		primitive bool
		callers   []*types.Func
	}
	nodes := map[*types.Func]*node{}
	get := func(fn *types.Func) *node {
		n := nodes[fn]
		if n == nil {
			n = &node{}
			nodes[fn] = n
		}
		return n
	}
	for _, pkg := range m.Packages {
		info := pkg.Info
		eachFunc(pkg, func(_ *ast.File, fd *ast.FuncDecl) {
			self, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				return
			}
			sn := get(self)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isPollCall(call, info, nil) {
					sn.primitive = true
					return true
				}
				if callee, ok := calleeObject(info, call).(*types.Func); ok {
					get(callee).callers = append(get(callee).callers, self)
				}
				return true
			})
		})
	}
	mayPoll := map[*types.Func]bool{}
	var queue []*types.Func
	for fn, n := range nodes {
		if n.primitive {
			mayPoll[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, caller := range nodes[fn].callers {
			if !mayPoll[caller] {
				mayPoll[caller] = true
				queue = append(queue, caller)
			}
		}
	}
	return mayPoll
}
