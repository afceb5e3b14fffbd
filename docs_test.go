package repro

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// docPath matches a repository path such as cmd/hsdserve,
	// internal/layout/copy.go or examples/, also inside
	// ./internal/core or repro/internal/rt.
	docPath = regexp.MustCompile(`\b(?:cmd|examples|internal)/[\w./-]*`)
	// docSelector is a trailing Go selector, as in internal/cluster.Router.
	docSelector = regexp.MustCompile(`\.[A-Z]\w*$`)
	// exampleName matches an Example function name.
	exampleName = regexp.MustCompile(`\bExample(?:_[a-z]\w*|[A-Z]\w*)?\b`)
	exampleFunc = regexp.MustCompile(`(?m)^func (Example\w*)\(\)`)
)

// TestDocsReferencesExist checks that every cmd/, examples/ and
// internal/ path and every Example name README.md and DESIGN.md mention
// exists, so a deleted tool or example cannot stay in the docs.
func TestDocsReferencesExist(t *testing.T) {
	examples := map[string]bool{}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tests {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range exampleFunc.FindAllStringSubmatch(string(src), -1) {
			examples[m[1]] = true
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range docPath.FindAllString(string(text), -1) {
			p = strings.TrimRight(docSelector.ReplaceAllString(p, ""), ".")
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s mentions %s, which does not exist", doc, p)
			}
		}
		for _, name := range exampleName.FindAllString(string(text), -1) {
			if !examples[name] {
				t.Errorf("%s mentions %s, which is not an Example in this package", doc, name)
			}
		}
	}
}
