// Baseline support for -diff: the findings at a git ref become an
// in-memory multiset, and the run fails only on findings that are not
// in it. This is how a new analyzer lands in CI before its burn-down
// finishes, without a checked-in baseline file.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

// baselineKey identifies a finding stably across checkouts and small
// edits: the module-root-relative file, the analyzer, and the message.
// Line and column are deliberately excluded — unrelated edits move
// findings around and must not churn the baseline.
type baselineKey struct {
	File     string
	Analyzer string
	Message  string
}

// keyOf builds the baseline key for a finding, relativising the file
// against root (the module root of the tree the finding came from).
func keyOf(f analysis.Finding, root string) baselineKey {
	file := f.File
	if root != "" {
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return baselineKey{File: filepath.ToSlash(file), Analyzer: f.Analyzer, Message: f.Message}
}

// toBaseline folds findings into a multiset of keys, so two identical
// findings in one file stay two.
func toBaseline(findings []analysis.Finding, root string) map[baselineKey]int {
	base := make(map[baselineKey]int, len(findings))
	for _, f := range findings {
		base[keyOf(f, root)]++
	}
	return base
}

// subtractBaseline splits findings into fresh ones and a count of known
// ones. Each baseline entry absorbs at most its count of findings — the
// multiset semantics — so a regression that duplicates a known finding
// still fails the gate.
func subtractBaseline(findings []analysis.Finding, base map[baselineKey]int, root string) ([]analysis.Finding, int) {
	budget := make(map[baselineKey]int, len(base))
	for k, n := range base {
		budget[k] = n
	}
	var fresh []analysis.Finding
	known := 0
	for _, f := range findings {
		k := keyOf(f, root)
		if budget[k] > 0 {
			budget[k]--
			known++
			continue
		}
		fresh = append(fresh, f)
	}
	return fresh, known
}

// moduleRoot resolves the module root directory for dir, used to make
// finding paths checkout-independent.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("hsdlint: resolving module root: %w", err)
	}
	return strings.TrimSpace(string(out)), nil
}

// refBaseline computes the baseline implied by a git ref of the module
// at root: check the ref out into a throwaway worktree, run the
// *current* analyzers over it, and key the findings against the
// worktree root. Corpus-directory arguments are paths into this tree
// and are ignored; only package patterns carry over.
func refBaseline(ref, root string, args []string) (map[baselineKey]int, error) {
	tmp, err := os.MkdirTemp("", "hsdlint-diff-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	wt := filepath.Join(tmp, "wt")
	if out, err := exec.Command("git", "-C", root, "worktree", "add", "--detach", wt, ref).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("hsdlint: checking out %s: %v\n%s", ref, err, out)
	}
	defer exec.Command("git", "-C", root, "worktree", "remove", "--force", wt).Run()

	var patterns []string
	for _, a := range args {
		if !isCorpusDir(a) {
			patterns = append(patterns, a)
		}
	}
	prog, err := analysis.Load(wt, patterns)
	if err != nil {
		return nil, fmt.Errorf("hsdlint: linting %s: %w", ref, err)
	}
	// Relativise against the worktree's own module root (as go sees
	// it), which matches the Finding.File paths from the same loader.
	wtroot, err := moduleRoot(wt)
	if err != nil {
		return nil, err
	}
	return toBaseline(analysis.Run(prog, analysis.All()), wtroot), nil
}
