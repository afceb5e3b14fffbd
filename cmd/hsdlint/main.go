// Command hsdlint runs the project's invariant analyzers
// (internal/analysis) over the module and reports violations as
//
//	file:line: [analyzer] message
//
// exiting nonzero if anything is found, so CI can gate merges on it.
//
// Usage:
//
//	hsdlint [-json] [-list] [patterns...]
//
// Patterns are go package patterns (default "./..."), resolved in the
// current directory. An argument naming a testdata directory (which go
// package patterns never reach) is loaded as a bare directory of Go
// files instead — that is how the golden tests and ad-hoc corpus runs
// invoke the driver.
//
// -list prints each analyzer's name and the contract it checks.
//
// Exit codes: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("hsdlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		listAnalyzers(os.Stdout)
		return 0
	}

	findings, err := lint(fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *jsonOut {
		if findings == nil {
			findings = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "hsdlint:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// listAnalyzers prints the suite, one analyzer per line.
func listAnalyzers(w io.Writer) {
	for _, a := range analysis.All() {
		fmt.Fprintf(w, "%-14s %s\n", a.Name, a.Doc)
	}
}

// lint resolves the command-line arguments and runs the full suite.
// Go package patterns load together as one program (so cross-package
// contracts are visible); each corpus directory loads as its own
// little program. Findings are aggregated across all of them.
func lint(args []string) ([]analysis.Finding, error) {
	var patterns, dirs []string
	for _, a := range args {
		if isCorpusDir(a) {
			dirs = append(dirs, a)
		} else {
			patterns = append(patterns, a)
		}
	}

	var findings []analysis.Finding
	if len(patterns) > 0 || len(dirs) == 0 {
		prog, err := analysis.Load(".", patterns)
		if err != nil {
			return nil, err
		}
		findings = append(findings, analysis.Run(prog, analysis.All())...)
	}
	for _, dir := range dirs {
		prog, err := analysis.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		findings = append(findings, analysis.Run(prog, analysis.All())...)
	}
	return findings, nil
}

// isCorpusDir reports whether arg names a testdata directory, which go
// package patterns cannot reach and must be loaded directly. Anything
// else — including other existing directories — goes through go list,
// whose loader has full module context.
func isCorpusDir(arg string) bool {
	if strings.Contains(arg, "...") {
		return false
	}
	st, err := os.Stat(arg)
	if err != nil || !st.IsDir() {
		return false
	}
	return strings.Contains(filepath.ToSlash(arg), "testdata")
}
