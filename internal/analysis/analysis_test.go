package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches the corpus expectation syntax:
//
//	code // want `message regexp`
//
// The pattern is matched (unanchored) against "[analyzer] message" of a
// finding reported on that line of that file.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// TestGolden runs the full suite over each corpus package under
// testdata/src and diffs the findings against the want comments: every
// finding must be expected and every expectation must fire. The corpus
// includes pragma-suppression and false-positive guard cases, which
// simply have no want comment — an unexpected finding there fails the
// test.
func TestGolden(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no corpus packages found: %v", err)
	}
	for _, dir := range dirs {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			prog, err := LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			findings := Run(prog, All())
			if len(findings) == 0 {
				t.Fatalf("corpus %s produced no findings at all", dir)
			}

			type want struct {
				re   *regexp.Regexp
				used bool
			}
			wants := map[string][]*want{} // "file:line" -> expectations
			for _, file := range globGo(t, dir) {
				for line, text := range fileLines(t, file) {
					for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", file, line, m[1], err)
						}
						key := fmt.Sprintf("%s:%d", file, line)
						wants[key] = append(wants[key], &want{re: re})
					}
				}
			}
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want comments", dir)
			}

			for _, f := range findings {
				key := fmt.Sprintf("%s:%d", filepath.ToSlash(f.File), f.Line)
				text := fmt.Sprintf("[%s] %s", f.Analyzer, f.Message)
				matched := false
				for _, w := range wants[key] {
					if !w.used && w.re.MatchString(text) {
						w.used = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding at %s: %s", key, text)
				}
			}
			var missed []string
			for key, ws := range wants {
				for _, w := range ws {
					if !w.used {
						missed = append(missed, fmt.Sprintf("%s: no finding matched `%s`", key, w.re))
					}
				}
			}
			sort.Strings(missed)
			for _, m := range missed {
				t.Error(m)
			}
		})
	}
}

// TestModuleLoadClean loads the real module through the go list loader
// and asserts the tree lints clean — the in-repo twin of CI's
// `hsdlint ./...` gate, and a regression test for the loader itself.
func TestModuleLoadClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) < 5 {
		t.Fatalf("expected to load the module's packages, got %d", len(prog.Packages))
	}
	for _, f := range Run(prog, All()) {
		t.Errorf("finding on clean tree: %s", f)
	}
}

// TestFindingString pins the driver's output contract.
func TestFindingString(t *testing.T) {
	f := Finding{File: "a/b.go", Line: 7, Col: 3, Analyzer: "bitident", Message: "boom"}
	if got, wantStr := f.String(), "a/b.go:7: [bitident] boom"; got != wantStr {
		t.Fatalf("String() = %q, want %q", got, wantStr)
	}
}

// TestAllowDirectiveParsing pins the pragma grammar: the directive must
// hug the comment marker and name the analyzer first.
func TestAllowDirectiveParsing(t *testing.T) {
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//hsd:allow bitident exact-zero test", "bitident", true},
		{"//hsd:allow all grandfathered", "all", true},
		{"// hsd:allow bitident spaced out", "", false},
		{"//hsd:allowbitident mashed", "", false},
		{"//hsd:allow", "", false},
		{"// regular comment", "", false},
	}
	for _, c := range cases {
		name, ok := parseAllow(c.text)
		if ok != c.ok || name != c.name {
			t.Errorf("parseAllow(%q) = %q, %v; want %q, %v", c.text, name, ok, c.name, c.ok)
		}
	}
}

func globGo(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .go files in %s: %v", dir, err)
	}
	sort.Strings(files)
	return files
}

// fileLines returns the file's lines keyed by 1-based line number,
// normalized to slash paths for matching against finding positions.
func fileLines(t *testing.T, file string) map[int]string {
	t.Helper()
	fh, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	lines := map[int]string{}
	sc := bufio.NewScanner(fh)
	for n := 1; sc.Scan(); n++ {
		if strings.Contains(sc.Text(), "// want") {
			lines[n] = sc.Text()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
