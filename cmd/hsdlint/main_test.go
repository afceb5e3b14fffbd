package main

import (
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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

// TestListNamesSuite pins the -list output: one line per analyzer, in
// suite order, each naming it first.
func TestListNamesSuite(t *testing.T) {
	var buf strings.Builder
	listAnalyzers(&buf)
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"bitident", "atomicfield", "lockorder", "errstatus"}
	if !slices.Equal(names, want) {
		t.Fatalf("-list names %v, want %v", names, want)
	}
}
