// Flow-pass plumbing: the framework side of the CFG substrate. A rule
// stays a whole-module AST walk by implementing only Rule; it opts into
// function-level flow passes by additionally implementing FlowRule, and
// the driver then hands it every function's CFG (declared functions and
// nested literals alike), built once per module and shared across
// rules.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FuncInfo is one analyzable function: a declared function or method,
// or a function literal nested inside one.
type FuncInfo struct {
	// Mod and Pkg locate the function; rules key scopes on Pkg.Path.
	Mod *Module
	Pkg *Package
	// Decl is the enclosing function declaration. For a literal it is
	// the declaration the literal is (transitively) nested in; nil when
	// the literal initializes a package-level variable.
	Decl *ast.FuncDecl
	// Lit is non-nil when the CFG belongs to a function literal.
	Lit *ast.FuncLit
	// CFG is the function's control-flow graph (never nil; bodiless
	// declarations are skipped).
	CFG *CFG
}

// Name renders a human-readable identity for diagnostics.
func (fi *FuncInfo) Name() string {
	switch {
	case fi.Lit != nil && fi.Decl != nil:
		return "function literal in " + fi.Pkg.Types.Name() + "." + fi.Decl.Name.Name
	case fi.Lit != nil:
		return "function literal in " + fi.Pkg.Types.Name()
	default:
		return fi.Pkg.Types.Name() + "." + fi.Decl.Name.Name
	}
}

// Body returns the function's body block.
func (fi *FuncInfo) Body() *ast.BlockStmt {
	if fi.Lit != nil {
		return fi.Lit.Body
	}
	return fi.Decl.Body
}

// FuncNode returns the declaring node (*ast.FuncDecl or *ast.FuncLit),
// from which goroleak reads the parameter list.
func (fi *FuncInfo) FuncNode() ast.Node {
	if fi.Lit != nil {
		return fi.Lit
	}
	return fi.Decl
}

// Object resolves the declared *types.Func of the function; nil for
// literals.
func (fi *FuncInfo) Object() *types.Func {
	if fi.Lit != nil || fi.Decl == nil {
		return nil
	}
	fn, _ := fi.Pkg.Info.Defs[fi.Decl.Name].(*types.Func)
	return fn
}

// FlowRule is the opt-in extension of Rule: the driver invokes RunFunc
// once per function in the module, after the rule's whole-module Run
// pass, with the shared CFG. Rules needing cross-function facts (such
// as ctxpoll's interprocedural may-poll set) should instead keep to
// Run and iterate m.Functions() themselves.
type FlowRule interface {
	RunFunc(fn *FuncInfo, report func(pos token.Pos, format string, args ...any))
}

// Functions builds (on first use) and returns the CFGs of every
// function in the module: declared functions and methods first, then
// every function literal, all attributed to their package and
// enclosing declaration. The slice is cached on the module and shared
// by all rules — CFGs must be treated as read-only.
func (m *Module) Functions() []*FuncInfo {
	if m.funcsBuilt {
		return m.funcs
	}
	m.funcsBuilt = true
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				m.funcs = append(m.funcs, &FuncInfo{
					Mod: m, Pkg: pkg, Decl: fn, CFG: buildCFG(fn.Body),
				})
				m.collectLits(pkg, fn, fn.Body)
			}
			// Literals in package-level var initializers.
			for _, decl := range file.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					m.collectLits(pkg, nil, gd)
				}
			}
		}
	}
	return m.funcs
}

// collectLits appends a FuncInfo for every function literal under root
// (literals nested in literals included, each with its own CFG).
func (m *Module) collectLits(pkg *Package, decl *ast.FuncDecl, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
			m.funcs = append(m.funcs, &FuncInfo{
				Mod: m, Pkg: pkg, Decl: decl, Lit: lit, CFG: buildCFG(lit.Body),
			})
		}
		return true
	})
}
