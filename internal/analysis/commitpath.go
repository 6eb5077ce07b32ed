package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CommitPath enforces the durability discipline of every file
// internal/store persists: data reaches its final name only through the
// write-temp → fsync → rename commit seam, and a failed write is rolled
// back, never left half-committed under a durable name. Two checks, both
// on the CFG:
//
//  1. Rename-needs-sync. A Rename call whose source resolves (through
//     reaching definitions of the f.Name() binding) to a file created
//     in this function must find that file in the synced state on every
//     path into the rename — a write or a handoff to a callee dirties
//     it, Sync cleans it. A Rename whose source is not a tracked file
//     is flagged unless some Sync precedes it on every path: renaming
//     bytes that were never fsynced commits a name to content the disk
//     may not hold.
//
//  2. Write-reaches-commit. Every direct Write/WriteString/WriteAt/
//     Truncate on a file created in this function must be post-dominated
//     by the commit seam or an explicit rollback: on every path from the
//     write to the exit the file is either Synced or Removed, or the
//     function carries a deferred cleanup of that file (a defer whose body
//     closes its handle, removes its Name() or the path variable it was
//     created from, or — for a CreateTemp file — calls RemoveAll on the
//     directory variable it was created in) that runs on all exits.
//
// Files are tracked from their creation call (Create, CreateTemp,
// OpenFile — matched by name so both package os and the iofault.FS
// seam qualify) to stay intraprocedural; a file received as a parameter
// belongs to its creator's analysis. The rule runs only over packages
// whose import path contains internal/store or internal/fft. The store is
// the only layer that owns durable files; the fft layer's out-of-core
// transform writes only private scratch, so check 2 is what applies there.
// A deferred cleanup covers only the file it names, so a read-only input's
// deferred Close does not excuse an unguarded write to another file. Paths
// are matched by variable, not by source text: two calls that read alike
// (tmpPath(), filepath.Join(dir, name)) need not name the same file.
type CommitPath struct{}

func (CommitPath) Name() string { return "commitpath" }
func (CommitPath) Doc() string {
	return "durable-file writes must reach the fsync→rename commit seam or a rollback; renames need a preceding sync"
}

// Run is empty: the whole analysis is per-function.
func (CommitPath) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {}

// fileState is the per-file dataflow fact.
type fileState uint8

const (
	fileUntracked fileState = iota // not created on this path
	fileClean                      // created, nothing unsynced
	fileDirty                      // written (or handed to a callee) since the last sync
	fileSynced                     // Sync called after the last write
)

// merge joins two states per may-dirty semantics: a path on which the
// file may be dirty dominates.
func (a fileState) merge(b fileState) fileState {
	if a == fileDirty || b == fileDirty {
		return fileDirty
	}
	if a == fileSynced && b == fileSynced {
		return fileSynced
	}
	if a == fileUntracked {
		return b
	}
	if b == fileUntracked {
		return a
	}
	return fileClean
}

func (CommitPath) RunFunc(fi *FuncInfo, report func(pos token.Pos, format string, args ...any)) {
	p := fi.Pkg.Path
	if !strings.Contains(p, "internal/store") && !strings.Contains(p, "internal/fft") {
		return
	}
	info := fi.Pkg.Info
	g := fi.CFG
	if g == nil {
		return
	}

	// Pass 1 (AST, flow-insensitive): discover the tracked files, the
	// name bindings (tmpName := f.Name()), and whether a deferred
	// cleanup covers the exits.
	files := map[*types.Var]bool{}
	nameOf := map[*types.Var]*types.Var{} // string local -> file it names
	// createdFrom maps a file to the local variable holding the path it
	// was created from (the directory, for CreateTemp), when that argument
	// is a bare variable; inTempDir marks the CreateTemp files.
	createdFrom := map[*types.Var]*types.Var{}
	inTempDir := map[*types.Var]bool{}
	for _, b := range g.Blocks {
		inspectShallow(b.Nodes, func(n ast.Node) bool {
			// Creation is almost always the tuple form f, err := Create(...),
			// which eachDef cannot attribute an Rhs to — match the assignment
			// shape directly.
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Create", "CreateTemp", "OpenFile":
				if v := localDefVar(info, as.Lhs[0]); v != nil {
					files[v] = true
					inTempDir[v] = sel.Sel.Name == "CreateTemp"
					if len(call.Args) > 0 {
						if from := localVar(info, call.Args[0]); from != nil {
							createdFrom[v] = from
						}
					}
				}
			case "Name":
				if recv := localVar(info, sel.X); recv != nil {
					if v := localDefVar(info, as.Lhs[0]); v != nil {
						nameOf[v] = recv
					}
				}
			}
			return true
		})
	}
	// cleaned holds the files a deferred cleanup names: a Close of the
	// file's variable, a Remove/RemoveAll of its Name() (directly or
	// through a bound local) or of the path variable it was created from,
	// or a RemoveAll of a CreateTemp file's directory variable (Remove of
	// a directory fails while the file is in it).
	cleaned := map[*types.Var]bool{}
	for _, d := range g.Defers {
		ast.Inspect(d, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Close":
				if v := localVar(info, sel.X); v != nil && files[v] {
					cleaned[v] = true
				}
			case "Remove", "RemoveAll":
				if len(call.Args) == 0 {
					return true
				}
				if v := resolveRenameSource(info, call.Args[0], nameOf); v != nil {
					cleaned[v] = true
				}
				arg := localVar(info, call.Args[0])
				if arg == nil {
					return true
				}
				for f, from := range createdFrom {
					if from == arg && (!inTempDir[f] || sel.Sel.Name == "RemoveAll") {
						cleaned[f] = true
					}
				}
			}
			return true
		})
	}

	// Pass 2: solve the per-file state flow.
	prob := &commitFlow{info: info, files: files}
	facts := Solve[commitFact](g, prob)

	// Pass 3: walk each block with its entry fact, checking renames as
	// they occur and collecting write sites for the post-dominance check.
	type finding struct {
		pos token.Pos
		msg string
	}
	var finds []finding
	for _, b := range g.Blocks {
		st := facts.In[b].clone()
		inspectShallow(b.Nodes, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if sel.Sel.Name == "Rename" && len(call.Args) >= 2 {
				src := resolveRenameSource(info, call.Args[0], nameOf)
				switch {
				case src != nil && files[src]:
					if st.of(src) == fileDirty {
						finds = append(finds, finding{call.Pos(),
							"renamed file " + src.Name() + " has unsynced writes on some path; fsync before committing the rename"})
					} else if st.of(src) != fileSynced {
						finds = append(finds, finding{call.Pos(),
							"renamed file " + src.Name() + " was never synced in this function; the commit seam is write→fsync→rename"})
					}
				default:
					// Source not traceable to a file created here: require
					// that some fsync happened on every path in — a rename
					// commits a durable name, the content must be on disk
					// first. Moves of already-committed files earn a
					// reasoned ignore.
					if !st.anySynced {
						finds = append(finds, finding{call.Pos(),
							"rename without a preceding sync on every path; fsync the content before committing its name, or ignore with a reason if it is already durable"})
					}
				}
			}
			prob.apply(&st, call)
			return true
		})
	}

	// Pass 4: write-reaches-commit, unless a deferred cleanup of the
	// written file guards every exit.
	for _, b := range g.Blocks {
		inspectShallow(b.Nodes, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			f, op := fileWriteCall(info, call, files)
			if f == nil || cleaned[f] {
				return true
			}
			commits := func(blk *Block) bool { return blockCommits(blk, info, f) }
			if !PostDominates(g, b, commits) && !blockCommitsAfter(b, n, info, f) {
				finds = append(finds, finding{call.Pos(),
					op + " on durable file " + f.Name() + " can reach the exit without fsync or rollback; sync it, remove it, or defer a cleanup"})
			}
			return true
		})
	}

	sort.Slice(finds, func(i, j int) bool { return finds[i].pos < finds[j].pos })
	for _, f := range finds {
		report(f.pos, "%s", f.msg)
	}
}

// commitFact maps tracked files to their state, plus whether any sync
// has happened on every path.
type commitFact struct {
	states    map[*types.Var]fileState
	anySynced bool
	boundary  bool // distinguishes the unset Bottom from a real fact
}

func (f commitFact) of(v *types.Var) fileState { return f.states[v] }

func (f commitFact) clone() commitFact {
	out := commitFact{states: map[*types.Var]fileState{}, anySynced: f.anySynced, boundary: f.boundary}
	for k, v := range f.states {
		out.states[k] = v
	}
	return out
}

type commitFlow struct {
	info  *types.Info
	files map[*types.Var]bool
}

func (p *commitFlow) Boundary() commitFact {
	return commitFact{states: map[*types.Var]fileState{}, boundary: true}
}
func (p *commitFlow) Bottom() commitFact { return commitFact{} }
func (p *commitFlow) Merge(a, b commitFact) commitFact {
	// Bottom (no fact yet) is the merge identity.
	if a.states == nil {
		return b
	}
	if b.states == nil {
		return a
	}
	out := commitFact{states: map[*types.Var]fileState{}, anySynced: a.anySynced && b.anySynced, boundary: true}
	for k := range p.files {
		s := a.of(k).merge(b.of(k))
		if s != fileUntracked {
			out.states[k] = s
		}
	}
	return out
}
func (p *commitFlow) Equal(a, b commitFact) bool {
	if a.boundary != b.boundary || a.anySynced != b.anySynced || len(a.states) != len(b.states) {
		return false
	}
	for k, v := range a.states {
		if b.states[k] != v {
			return false
		}
	}
	return true
}
func (p *commitFlow) Transfer(b *Block, in commitFact) commitFact {
	if in.states == nil {
		in = commitFact{states: map[*types.Var]fileState{}, boundary: true}
	}
	out := in.clone()
	inspectShallow(b.Nodes, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			p.apply(&out, call)
		}
		return true
	})
	return out
}

// apply folds one call's effect into the fact.
func (p *commitFlow) apply(f *commitFact, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if ok {
		// Any fsync counts for the anySynced side-fact, even of a file
		// this function did not create (a shadow passed in, a handle off a
		// struct): the unresolved-rename check asks only "was something
		// synced before the name was committed".
		if sel.Sel.Name == "Sync" {
			f.anySynced = true
		}
		if recv := localVar(p.info, sel.X); recv != nil && p.files[recv] {
			switch sel.Sel.Name {
			case "Write", "WriteString", "WriteAt", "Truncate", "ReadFrom":
				f.states[recv] = fileDirty
			case "Sync":
				f.states[recv] = fileSynced
			case "Name", "Close", "Read", "ReadAt", "Seek", "Stat":
				// neutral
			}
			// Other methods leave the state unchanged.
		}
	}
	// A tracked file passed as an argument is handed to a callee that
	// may write it: dirty until the next sync. (Creation calls assign
	// the file, they never receive it.)
	for _, a := range call.Args {
		if v := localVar(p.info, a); v != nil && p.files[v] {
			f.states[v] = fileDirty
		}
	}
}

// localVar resolves an expression to the function-local variable it
// names, or nil.
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() || v.IsField() {
		return nil
	}
	return v
}

// localDefVar is localVar for a defining position (the LHS of :=), where
// the identifier lives in Defs rather than Uses.
func localDefVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	var obj = info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() || v.IsField() {
		return nil
	}
	return v
}

// resolveRenameSource maps a Rename's first argument back to the file
// it names: directly a f.Name() call, or a local bound to one.
func resolveRenameSource(info *types.Info, arg ast.Expr, nameOf map[*types.Var]*types.Var) *types.Var {
	if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Name" {
			return localVar(info, sel.X)
		}
	}
	if v := localVar(info, arg); v != nil {
		if f, ok := nameOf[v]; ok {
			return f
		}
	}
	return nil
}

// fileWriteCall reports whether the call writes a tracked file,
// returning the file and the operation name.
func fileWriteCall(info *types.Info, call *ast.CallExpr, files map[*types.Var]bool) (*types.Var, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Write", "WriteString", "WriteAt", "Truncate":
		if v := localVar(info, sel.X); v != nil && files[v] {
			return v, sel.Sel.Name
		}
	}
	return nil, ""
}

// blockCommits reports whether the block syncs or removes the file (or
// removes anything — a rollback path rarely names the same local).
func blockCommits(b *Block, info *types.Info, f *types.Var) bool {
	found := false
	inspectShallow(b.Nodes, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Sync":
			if localVar(info, sel.X) == f {
				found = true
			}
		case "Remove", "RemoveAll":
			found = true
		}
		return true
	})
	return found
}

// blockCommitsAfter reports whether the block syncs or removes f in a
// call lexically after the given node — PostDominates asks about paths
// leaving the block, so an in-block commit following the write must be
// credited separately.
func blockCommitsAfter(b *Block, after ast.Node, info *types.Info, f *types.Var) bool {
	found := false
	inspectShallow(b.Nodes, func(n ast.Node) bool {
		if found {
			return false
		}
		if n.Pos() <= after.Pos() {
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch sel.Sel.Name {
		case "Sync":
			if localVar(info, sel.X) == f {
				found = true
			}
		case "Remove", "RemoveAll":
			found = true
		}
		return true
	})
	return found
}
