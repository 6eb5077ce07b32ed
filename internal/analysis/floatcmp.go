package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatCmp flags == and != between floating-point or complex operands.
// The FFT accuracy contract (counts are exact only after rounding, see
// fft.AutocorrelateCounts) rests on tolerance comparisons; an exact
// equality on a spectrum or a count before rounding is almost always a
// latent bug. Comparisons where both
// operands are compile-time constants are exact and exempt, as are test
// files (the loader already excludes them, and the rule re-checks the
// file name so it stays correct if loading policy changes).
type FloatCmp struct{}

func (FloatCmp) Name() string { return "floatcmp" }
func (FloatCmp) Doc() string {
	return "flag ==/!= on floating-point or complex operands outside test files"
}

func (FloatCmp) Run(m *Module, report func(pos token.Pos, format string, args ...any)) {
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			if strings.HasSuffix(m.Fset.Position(file.Pos()).Filename, "_test.go") {
				continue
			}
			info := pkg.Info
			ast.Inspect(file, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				xt, yt := info.Types[be.X], info.Types[be.Y]
				if xt.Type == nil || yt.Type == nil {
					return true
				}
				if !isFloatOrComplex(xt.Type) && !isFloatOrComplex(yt.Type) {
					return true
				}
				if xt.Value != nil && yt.Value != nil {
					return true // constant expression, exact by definition
				}
				kind := "floating-point"
				if isComplexType(xt.Type) || isComplexType(yt.Type) {
					kind = "complex"
				}
				op := "equality (==)"
				if be.Op == token.NEQ {
					op = "inequality (!=)"
				}
				report(be.OpPos, "%s comparison on %s operands; compare against a tolerance", op, kind)
				return true
			})
		}
	}
}

func isComplexType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsComplex != 0
}
