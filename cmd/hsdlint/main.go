// Command hsdlint runs the project's invariant analyzers
// (internal/analysis) over the module and reports violations as
//
//	file:line: [analyzer] message
//
// exiting nonzero if anything is found, so CI can gate merges on it.
//
// Usage:
//
//	hsdlint [-json] [-list] [-diff ref] [patterns...]
//
// Patterns are go package patterns (default "./..."), resolved in the
// current directory. An argument naming a testdata directory (which go
// package patterns never reach) is loaded as a bare directory of Go
// files instead — that is how the golden tests and ad-hoc corpus runs
// invoke the driver.
//
// -diff <ref> lets a new analyzer land before its burn-down is done: it
// runs the current analyzers over a throwaway git worktree of <ref>,
// suppresses exactly the findings also present there and fails only on
// new ones, so CI can gate a branch on "no findings beyond main".
//
// -list prints each analyzer with a flow-sensitive tag: flow-sensitive
// analyzers run on the CFG/dataflow engine, the rest match syntax.
//
// Exit codes: 0 clean (or only known findings), 1 new findings,
// 2 usage or load error.
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
	diffRef := fs.String("diff", "", "suppress findings also present at this git ref; fail only on new ones")
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

	known := 0
	if *diffRef != "" {
		root, err := moduleRoot(".")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		base, err := refBaseline(*diffRef, root, fs.Args())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		findings, known = subtractBaseline(findings, base, root)
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
	if known > 0 {
		fmt.Fprintf(os.Stderr, "hsdlint: %d known finding(s) suppressed by baseline\n", known)
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// listAnalyzers prints the suite, tagging each analyzer with whether it
// runs on the CFG/dataflow engine or matches syntax shapes.
func listAnalyzers(w io.Writer) {
	for _, a := range analysis.All() {
		flow := "no"
		if a.Flow {
			flow = "yes"
		}
		fmt.Fprintf(w, "%-14s flow-sensitive: %-3s  %s\n", a.Name, flow, a.Doc)
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
