package analysis_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"periodica/internal/analysis"
)

// -update rewrites the golden files from current rule output.
var update = flag.Bool("update", false, "rewrite golden files")

// goldenCases pairs each rule with its firing fixture and its
// true-negative fixture. The firing fixtures also carry //opvet:ignore
// suppressions, so the goldens prove both directions: seeded defects
// appear, suppressed and clean code stays silent. loadPath overrides
// the fixture's import path for rules that key their scope on it
// (ctxpoll's internal/exec, commitpath's internal/store). module marks
// fixtures that are miniature modules (their own go.mod) loaded with
// LoadModule — for rules whose scope spans packages, like optdrift's
// home-package exemptions.
var goldenCases = []struct {
	rule     string
	fixture  string
	loadPath string
	clean    bool
	module   bool
}{
	{"floatcmp", "floatcmp", "", false, false},
	{"floatcmp", "floatcmp_clean", "", true, false},
	{"poolpair", "poolpair", "", false, false},
	{"poolpair", "poolpair_clean", "", true, false},
	{"mutglobal", "mutglobal", "", false, false},
	{"mutglobal", "mutglobal_clean", "", true, false},
	{"noalloc", "noalloc", "", false, false},
	{"noalloc", "noalloc_clean", "", true, false},
	{"errcheck-lite", "errcheck", "", false, false},
	{"errcheck-lite", "errcheck_clean", "", true, false},
	{"stagestate", "stagestate", "", false, false},
	{"stagestate", "stagestate_clean", "", true, false},
	{"ctxpoll", "ctxpoll", "", false, false},
	{"ctxpoll", "ctxpoll_clean", "", true, false},
	{"ctxpoll", "execpoll", "fixture/execpoll/internal/exec", false, false},
	{"ctxpoll", "execpoll_clean", "fixture/execpoll_clean/internal/exec", true, false},
	{"commitpath", "commitpath", "fixture/commitpath/internal/store", false, false},
	{"commitpath", "commitpath_clean", "fixture/commitpath_clean/internal/store", true, false},
	{"goroleak", "goroleak", "", false, false},
	{"goroleak", "goroleak_clean", "", true, false},
	{"ignorereason", "ignorereason", "", false, false},
	{"ignorereason", "ignorereason_clean", "", true, false},
	{"optdrift", "optdrift", "", false, true},
	{"optdrift", "optdrift_clean", "", true, true},
}

func TestRuleGoldens(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.rule+"/"+tc.fixture, func(t *testing.T) {
			rule := analysis.RuleByName(tc.rule)
			if rule == nil {
				t.Fatalf("rule %q not registered", tc.rule)
			}
			dir := filepath.Join("testdata", "src", tc.fixture)
			var m *analysis.Module
			var err error
			if tc.module {
				m, err = analysis.LoadModule(dir)
			} else {
				loadPath := tc.loadPath
				if loadPath == "" {
					loadPath = "fixture/" + tc.fixture
				}
				m, err = analysis.LoadPackageDir(dir, loadPath)
			}
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			got := render(m, analysis.Run(m, []analysis.Rule{rule}))
			if tc.clean {
				if got != "" {
					t.Fatalf("true-negative fixture %s produced diagnostics:\n%s", tc.fixture, got)
				}
				return
			}
			if got == "" {
				t.Fatalf("fixture %s produced no diagnostics; the rule never fired", tc.fixture)
			}
			goldenPath := filepath.Join("testdata", tc.fixture+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test -run TestRuleGoldens -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// render formats diagnostics with fixture-relative file names so
// goldens are stable across checkouts.
func render(m *analysis.Module, diags []analysis.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		name := d.Pos.Filename
		if rel, err := filepath.Rel(m.Dir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		d.Pos.Filename = name
		sb.WriteString(d.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSuppressionSyntax covers the ignore-grammar corner cases through
// the floatcmp fixture: the golden there already proves suppressed
// lines are absent; this test asserts the specific suppressed lines
// never appear under any rendering.
func TestSuppressionSyntax(t *testing.T) {
	dir := filepath.Join("testdata", "src", "floatcmp")
	m, err := analysis.LoadPackageDir(dir, "fixture/floatcmp")
	if err != nil {
		t.Fatal(err)
	}
	got := render(m, analysis.Run(m, analysis.Rules()))
	for _, suppressedLine := range []string{"floatcmp.go:40:", "floatcmp.go:44:", "floatcmp.go:48:"} {
		if strings.Contains(got, suppressedLine) {
			t.Errorf("diagnostic on suppressed line %s survived:\n%s", suppressedLine, got)
		}
	}
}

// TestRegistry locks the rule catalogue: names are unique, sorted, and
// every rule documents itself.
func TestRegistry(t *testing.T) {
	rules := analysis.Rules()
	if len(rules) != 11 {
		t.Fatalf("expected 11 rules, got %d", len(rules))
	}
	for i, r := range rules {
		if r.Name() == "" || r.Doc() == "" {
			t.Errorf("rule %d lacks a name or doc", i)
		}
		if i > 0 && rules[i-1].Name() >= r.Name() {
			t.Errorf("registry not sorted: %s >= %s", rules[i-1].Name(), r.Name())
		}
	}
	if analysis.RuleByName("no-such-rule") != nil {
		t.Error("RuleByName invented a rule")
	}
}

// TestLoadModule type-checks the entire repository and asserts the
// packages the rules most depend on are present with type information.
func TestLoadModule(t *testing.T) {
	m, err := analysis.LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	want := map[string]bool{
		"periodica":               false,
		"periodica/internal/fft":  false,
		"periodica/internal/conv": false,
		"periodica/internal/exec": false,
		"periodica/cmd/opvet":     false,
	}
	for _, pkg := range m.Packages {
		if _, ok := want[pkg.Path]; ok {
			want[pkg.Path] = true
		}
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("package %s loaded without type info", pkg.Path)
		}
	}
	for path, seen := range want {
		if !seen {
			t.Errorf("package %s not loaded", path)
		}
	}
}

// TestTreeClean is the analyzer's standing contract with the
// repository: the full rule registry over the full module reports
// nothing. Any new finding fails this test before it ever reaches CI's
// opvet step.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	m, err := analysis.LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule: %v", err)
	}
	if got := render(m, analysis.Run(m, analysis.Rules())); got != "" {
		t.Errorf("tree is not opvet-clean:\n%s", got)
	}
}
