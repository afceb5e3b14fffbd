package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

const corpusRoot = "../../internal/analysis/testdata/src"

// TestCorpusExitsNonzero pins the acceptance contract: the driver must
// exit nonzero with findings on every corpus package.
func TestCorpusExitsNonzero(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join(corpusRoot, "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no corpus dirs: %v", err)
	}
	for _, dir := range dirs {
		if got := run([]string{dir}); got != 1 {
			t.Errorf("run(%s) exit = %d, want 1", dir, got)
		}
	}
}

// TestTreeExitsZero runs the suite over the whole module (the CI lint
// gate) and requires a clean exit.
func TestTreeExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	if got := run([]string{"repro/..."}); got != 0 {
		t.Fatalf("run(repro/...) exit = %d, want 0", got)
	}
}

// TestBadPatternExitsTwo pins the load-error exit code.
func TestBadPatternExitsTwo(t *testing.T) {
	if got := run([]string{"repro/internal/does-not-exist"}); got != 2 {
		t.Fatalf("run(bogus) exit = %d, want 2", got)
	}
}

// TestJSONFindings pins the -json wire shape: lower-case keys carrying
// file, line and analyzer, so future tooling can diff findings across
// PRs.
func TestJSONFindings(t *testing.T) {
	findings, err := lint([]string{filepath.Join(corpusRoot, "bitident")})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("bitident corpus produced no findings")
	}
	raw, err := json.Marshal(findings[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"file"`, `"line"`, `"col"`, `"analyzer"`, `"message"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON finding %s lacks %s", raw, key)
		}
	}
}

// TestListExitsZero keeps -list wired up.
func TestListExitsZero(t *testing.T) {
	if got := run([]string{"-list"}); got != 0 {
		t.Fatalf("run(-list) exit = %d, want 0", got)
	}
}

// TestListShowsFlowTags pins the -list columns: every analyzer carries
// a flow-sensitive tag, and both values occur in the current suite.
func TestListShowsFlowTags(t *testing.T) {
	var buf strings.Builder
	listAnalyzers(&buf)
	out := buf.String()
	if !strings.Contains(out, "flow-sensitive: yes") {
		t.Errorf("-list output has no flow-sensitive analyzers:\n%s", out)
	}
	if !strings.Contains(out, "flow-sensitive: no") {
		t.Errorf("-list output has no syntax-only analyzers:\n%s", out)
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output lacks analyzer %s", a.Name)
		}
	}
}

// TestBaselineFailsOnNewFindings: a baseline missing one entry lets
// exactly that finding through, and an entry's count absorbs only its
// recorded number of duplicates.
func TestBaselineFailsOnNewFindings(t *testing.T) {
	dir := filepath.Join(corpusRoot, "errstatus")
	findings, err := lint([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) < 2 {
		t.Fatalf("errstatus corpus produced %d findings, need at least 2", len(findings))
	}
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	base := toBaseline(findings[1:], root)
	fresh, known := subtractBaseline(findings, base, root)
	if len(fresh) != 1 || known != len(findings)-1 {
		t.Fatalf("partial baseline: %d fresh, %d known, want 1 fresh and %d known", len(fresh), known, len(findings)-1)
	}
	if fresh[0].Message != findings[0].Message {
		t.Fatalf("wrong finding survived: %s", fresh[0])
	}
}

// TestDiffAgainstHead runs the full -diff machinery: lint the module,
// lint a worktree of HEAD with the same suite, fail only on findings
// the working tree added. Whatever HEAD's state, the working tree
// linting clean means -diff must be clean too.
func TestDiffAgainstHead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module twice")
	}
	if got := run([]string{"-diff", "HEAD", "repro/..."}); got != 0 {
		t.Fatalf("run(-diff HEAD) exit = %d, want 0", got)
	}
}
