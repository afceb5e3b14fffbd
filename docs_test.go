package repro

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/serve"
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
	// docExp matches an hsdfigures experiment id, as in -exp fig7, also
	// with the id on the next line.
	docExp = regexp.MustCompile(`-exp\s+(\w+)`)
	// docCurl matches a curl that posts a JSON body to a job route,
	// with the -d on the same line or the next: the route's path and
	// the body.
	docCurl = regexp.MustCompile(`curl -s \S*?(/v1/(?:factor|cholesky/solve|cholesky|solve))\s[^\n]*?(?:\\\n[^\n]*?)?-d '(\{[^']*\})'`)
)

// TestDocsReferencesExist checks that every cmd/, examples/ and
// internal/ path and every Example name README.md and DESIGN.md mention
// exists, and that every -exp id they and cmd/hsdfigures's doc comment
// give is all or a registered experiment, so a deleted tool, example or
// experiment cannot stay in the docs.
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
	ids := map[string]bool{"all": true}
	for _, id := range ExperimentIDs() {
		ids[id] = true
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "cmd/hsdfigures/main.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range docExp.FindAllStringSubmatch(string(text), -1) {
			found = true
			if !ids[m[1]] {
				t.Errorf("%s runs -exp %s, which is not an experiment id", doc, m[1])
			}
		}
		if !found {
			t.Errorf("%s: no -exp id found", doc)
		}
	}
}

// TestDocsCurlBodiesAccepted posts every curl body README.md and
// cmd/hsdserve's doc comment send to a job route, in document order, to
// a fresh in-process shard per document, so a walkthrough run top to
// bottom works: each must answer 200. A body with a ... placeholder is
// skipped.
func TestDocsCurlBodiesAccepted(t *testing.T) {
	for _, doc := range []string{"README.md", "cmd/hsdserve/main.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := engine.New(engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.New(eng, serve.Options{Keep: 16}).Handler())
		posted := 0
		for _, m := range docCurl.FindAllStringSubmatch(string(text), -1) {
			path, body := m[1], m[2]
			if strings.Contains(body, "...") {
				continue
			}
			posted++
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			reply, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: %s %s: %d %s", doc, path, body, resp.StatusCode, reply)
			}
		}
		if posted == 0 {
			t.Errorf("%s: no curl body found", doc)
		}
		ts.Close()
		eng.Close()
	}
}
