// Package analysis is periodica's project-specific static-analysis
// framework: a miniature, dependency-free counterpart of
// golang.org/x/tools/go/analysis built only on the standard library
// (go/parser, go/ast, go/types, go/importer). It exists because the
// paper's one-pass guarantee rests on the convolution counts being
// *exact*, and the invariants that keep them exact — tolerance
// comparisons instead of float ==, balanced sync.Pool Get/Put pairs,
// no unsynchronized reads of mutable globals from goroutines, and the
// zero-alloc contract on the FFT hot path — are invisible to go vet.
//
// A Rule inspects a fully type-checked Module (every package of the
// repository, loaded by LoadModule) and reports Diagnostics. The
// framework applies //opvet: suppression comments, sorts the findings,
// and renders them as "file:line:col: rule: message" lines; cmd/opvet
// is the CLI driver and exits non-zero when any diagnostic survives.
//
// Annotation grammar (all comments start with "//opvet:", no space):
//
//	//opvet:ignore rule1,rule2 reason   suppress the named rules on this line /
//	                               the next line; the trailing reason is
//	                               mandatory (the ignorereason meta-rule flags
//	                               bare ignores, unknown rule names, and
//	                               missing reasons)
//	//opvet:ignore                 legacy blanket form: still suppresses every
//	                               rule except ignorereason itself, which
//	                               reports it
//	//opvet:noalloc                (FuncDecl doc) function must stay allocation-free
//	//opvet:racesafe               (var decl doc or line comment) global is safe to
//	                               read concurrently; mutglobal skips it
//	//opvet:acquire                (FuncDecl doc) function returns a borrowed pooled
//	                               buffer; poolpair treats calls to it like Pool.Get
//	                               and exempts its own body
//	//opvet:release                (FuncDecl doc) function returns a buffer to a
//	                               pool; poolpair treats calls to it like Pool.Put
//
// Trailing free text after the annotation word (a reason) is allowed
// and ignored by the parser.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one type-checked package of the module.
type Package struct {
	// Path is the import path ("periodica/internal/fft").
	Path string
	// Dir is the absolute directory the files were parsed from.
	Dir string
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the per-expression type information for Files.
	Info *types.Info
}

// Module is the unit every rule runs over: all packages of one Go
// module, sharing a single FileSet.
type Module struct {
	// Path is the module path from go.mod ("periodica").
	Path string
	// Dir is the module root directory.
	Dir string
	// Fset positions every file of every package.
	Fset *token.FileSet
	// Packages is sorted by import path.
	Packages []*Package

	// funcs caches the per-function CFGs built by Functions().
	funcs      []*FuncInfo
	funcsBuilt bool
}

// Diagnostic is one finding of one rule.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the canonical "file:line:col: rule: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is a single named check over a Module.
type Rule interface {
	// Name is the identifier used in diagnostics and //opvet:ignore lists.
	Name() string
	// Doc is a one-line description for -list output.
	Doc() string
	// Run inspects the module and reports findings through report.
	Run(m *Module, report func(pos token.Pos, format string, args ...any))
}

// Rules returns the default registry, sorted by name.
func Rules() []Rule {
	return []Rule{
		CommitPath{},
		CtxPoll{},
		ErrcheckLite{},
		FloatCmp{},
		GoroLeak{},
		IgnoreReason{},
		MutGlobal{},
		NoAlloc{},
		OptDrift{},
		PoolPair{},
		StageState{},
	}
}

// RuleByName resolves one registry entry; nil if absent.
func RuleByName(name string) Rule {
	for _, r := range Rules() {
		if r.Name() == name {
			return r
		}
	}
	return nil
}

// Run executes the rules over the module, filters the findings through
// //opvet:ignore suppression, and returns them sorted by position.
// Rules that additionally implement FlowRule receive every function's
// CFG after their whole-module pass.
func Run(m *Module, rules []Rule) []Diagnostic {
	sup := newSuppressions(m)
	var diags []Diagnostic
	for _, r := range rules {
		name := r.Name()
		report := func(pos token.Pos, format string, args ...any) {
			p := m.Fset.Position(pos)
			if sup.suppressed(name, p) {
				return
			}
			diags = append(diags, Diagnostic{Pos: p, Rule: name, Message: fmt.Sprintf(format, args...)})
		}
		r.Run(m, report)
		if fr, ok := r.(FlowRule); ok {
			for _, fn := range m.Functions() {
				fr.RunFunc(fn, report)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// suppressions indexes //opvet:ignore comments: a diagnostic on line L
// of file F is suppressed when an ignore comment sits on line L or on
// line L-1 (a comment directly above the offending statement).
type suppressions struct {
	// byLine maps file name -> line -> list of suppressed rule names,
	// where the single entry "*" suppresses every rule.
	byLine map[string]map[int][]string
}

func newSuppressions(m *Module) *suppressions {
	s := &suppressions{byLine: map[string]map[int][]string{}}
	for _, pkg := range m.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rules, ok := parseIgnore(c.Text)
					if !ok {
						continue
					}
					p := m.Fset.Position(c.Pos())
					lines := s.byLine[p.Filename]
					if lines == nil {
						lines = map[int][]string{}
						s.byLine[p.Filename] = lines
					}
					// The comment suppresses its own line and the line
					// below it, so both "stmt //opvet:ignore x" and a
					// comment-above form work.
					lines[p.Line] = append(lines[p.Line], rules...)
					lines[p.Line+1] = append(lines[p.Line+1], rules...)
				}
			}
		}
	}
	return s
}

func (s *suppressions) suppressed(rule string, pos token.Position) bool {
	for _, r := range s.byLine[pos.Filename][pos.Line] {
		// The ignorereason meta-rule flags defective ignore comments, so a
		// wildcard ignore must not silence the very finding about itself;
		// only naming the rule explicitly suppresses it.
		if r == "*" && rule == "ignorereason" {
			continue
		}
		if r == "*" || r == rule {
			return true
		}
	}
	return false
}

// parseIgnore extracts the suppressed rule list from one comment.
// "//opvet:ignore" alone yields ["*"]; "//opvet:ignore a,b reason"
// yields ["a","b"]. Non-ignore comments return ok=false.
func parseIgnore(text string) (rules []string, ok bool) {
	rest, found := annotationArgs(text, "ignore")
	if !found {
		return nil, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return []string{"*"}, true
	}
	for _, r := range strings.Split(fields[0], ",") {
		if r = strings.TrimSpace(r); r != "" {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		rules = []string{"*"}
	}
	return rules, true
}

// annotationArgs reports whether the comment is "//opvet:<word> ..."
// and returns the text after the word.
func annotationArgs(text, word string) (rest string, ok bool) {
	const prefix = "//opvet:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	body := text[len(prefix):]
	if !strings.HasPrefix(body, word) {
		return "", false
	}
	rest = body[len(word):]
	// The word must end here or be followed by whitespace, so
	// "noallocs" does not match "noalloc".
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

// hasAnnotation reports whether any comment in the group is the given
// //opvet: annotation word.
func hasAnnotation(doc *ast.CommentGroup, word string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if _, ok := annotationArgs(c.Text, word); ok {
			return true
		}
	}
	return false
}

// funcHasAnnotation checks a function declaration's doc comment.
func funcHasAnnotation(fn *ast.FuncDecl, word string) bool {
	return hasAnnotation(fn.Doc, word)
}
