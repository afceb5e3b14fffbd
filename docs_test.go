package repro

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
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
	// docTestFlag matches a go test -run, -bench or -fuzz flag and its
	// pattern, quoted or bare, also with the pattern on the next line.
	docTestFlag = regexp.MustCompile(`-(run|bench|fuzz)[\s=]+('[^']*'|"[^"]*"|[^\s'"` + "`" + `]+)`)
	// docTestName matches a Test, Fuzz or Benchmark function name; a
	// trailing * makes it a prefix.
	docTestName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*\*?`)
	// testFunc matches the declaration of a function go test runs.
	testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark|Example)\w*)\(`)
	// docCurl matches a curl that posts a JSON body to a job route,
	// with the -d on the same line or the next: the route's path and
	// the body.
	docCurl = regexp.MustCompile(`curl -s \S*?(/v1/(?:factor|cholesky|solve))\s[^\n]*?(?:\\\n[^\n]*?)?-d '(\{[^']*\})'`)
)

// TestDocsReferencesExist checks that every cmd/, examples/ and
// internal/ path and every Example name README.md and DESIGN.md mention
// exists, that every -exp id they and cmd/hsdfigures's doc comment
// give is all or a registered experiment, and that every test they and
// the verify skill cite resolves (testRefsResolve), so a deleted tool,
// example, experiment or test cannot stay in the docs.
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
	funcs := testFuncs(t)
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, msg := range testRefsResolve(string(text), funcs) {
			t.Errorf("%s: %s", doc, msg)
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

// testFuncs lists the Test, Fuzz, Benchmark and Example functions of
// every test file in the repository.
func testFuncs(t *testing.T) []string {
	var funcs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			funcs = append(funcs, m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// testRefsResolve reports every test reference in text that names no
// function in funcs. Each alternative of a -run, -bench or -fuzz
// pattern's first level (what go test matches against function names)
// must match a function the flag selects from; '^$', which selects
// none on purpose, is skipped. Outside the flags, a Test, Fuzz or
// Benchmark name must be a function, or with a trailing * the prefix
// of one.
func testRefsResolve(text string, funcs []string) []string {
	var bad []string
	prefixes := map[string][]string{"run": {"Test", "Fuzz", "Example"}, "bench": {"Benchmark"}, "fuzz": {"Fuzz"}}
	for _, m := range docTestFlag.FindAllStringSubmatch(text, -1) {
		pattern := strings.Trim(m[2], `'"`)
		for _, alt := range strings.Split(strings.Split(pattern, "/")[0], "|") {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				bad = append(bad, fmt.Sprintf("-%s %s: %v", m[1], pattern, err))
				continue
			}
			if !slices.ContainsFunc(funcs, func(f string) bool {
				return re.MatchString(f) && slices.ContainsFunc(prefixes[m[1]], func(p string) bool { return strings.HasPrefix(f, p) })
			}) {
				bad = append(bad, fmt.Sprintf("-%s %s: %q matches no function", m[1], pattern, alt))
			}
		}
	}
	for _, name := range docTestName.FindAllString(docTestFlag.ReplaceAllString(text, " "), -1) {
		prefix, isPrefix := strings.CutSuffix(name, "*")
		if !slices.ContainsFunc(funcs, func(f string) bool { return f == name || isPrefix && strings.HasPrefix(f, prefix) }) {
			bad = append(bad, fmt.Sprintf("%s is not a test function", name))
		}
	}
	return bad
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
