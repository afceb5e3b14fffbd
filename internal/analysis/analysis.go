// Package analysis is hsdlint's engine: a suite of project-specific
// static analyzers that machine-check the invariants this codebase's
// correctness story rests on — invariants that are documented in
// comments and enforced by convention, which PR history shows is not
// enough. Each analyzer encodes one contract that no runtime test
// catches on its own:
//
//   - bitident: the Getf2/panel bit-identity region (//hsd:bitident)
//     must stay free of math.FMA, float ==/!= and dot-product-style
//     fused accumulation.
//   - atomicfield: a field or package variable accessed through
//     sync/atomic anywhere must never be read or written plainly.
//   - lockorder: mutexes ranked with //hsd:lockrank must be acquired
//     in declared order on every path, including one call deep
//     (per-package acquisition summaries carry the chain). It runs on
//     a function-level CFG (cfg.go) and a forward-dataflow worklist
//     solver (dataflow.go).
//   - errstatus: errors are tested with errors.Is/As, never with ==
//     or a type assertion, which miss wrapped errors.
//
// The suite runs on stdlib tooling only (go/ast, go/parser, go/types;
// package loading drives `go list`), keeping the module at zero
// dependencies. Intentional violations are suppressed in source with
//
//	//hsd:allow <analyzer> <one-line justification>
//
// either trailing the offending line or on the line directly above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String renders the finding in the canonical `file:line: [analyzer]
// message` form the driver prints and CI greps.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package under analysis.
type Package struct {
	// PkgPath is the import path ("repro/internal/kernel"), or a
	// synthetic "testdata/<name>" path for corpus packages loaded by
	// directory.
	PkgPath string
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// Sources maps file names to their raw content, so pragma handling
	// can distinguish trailing comments from whole-line comments.
	Sources map[string][]byte

	// funcs is the lazily built function index (see FuncDecls).
	funcs map[types.Object]*ast.FuncDecl
}

// Program is a set of packages loaded together: analyzers see the whole
// program, so cross-package contracts (an exported field written
// atomically in one package and plainly in another) are visible.
type Program struct {
	Fset *token.FileSet
	// Packages are the analysis targets, in dependency order.
	Packages []*Package

	// cfgs is the shared CFG cache (see CFGOf).
	cfgs map[*ast.FuncDecl]*CFG
}

// Reporter collects findings for one analyzer run.
type Reporter struct {
	prog     *Program
	analyzer string
	findings []Finding
}

// Reportf records a finding at pos unless an //hsd:allow pragma
// suppresses it.
func (r *Reporter) Reportf(pos token.Pos, format string, args ...any) {
	p := r.prog.Fset.Position(pos)
	if r.prog.allowed(r.analyzer, p) {
		return
	}
	r.findings = append(r.findings, Finding{
		Pos:      p,
		File:     p.Filename,
		Line:     p.Line,
		Col:      p.Column,
		Analyzer: r.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker over a whole Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(prog *Program, r *Reporter)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		BitIdent,
		AtomicField,
		LockOrder,
		ErrStatus,
	}
}

// Run executes the given analyzers over the program and returns the
// surviving findings sorted by position.
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	var all []Finding
	for _, a := range analyzers {
		r := &Reporter{prog: prog, analyzer: a.Name}
		a.Run(prog, r)
		all = append(all, r.findings...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		if all[i].Line != all[j].Line {
			return all[i].Line < all[j].Line
		}
		if all[i].Col != all[j].Col {
			return all[i].Col < all[j].Col
		}
		return all[i].Analyzer < all[j].Analyzer
	})
	return all
}

// ---------------------------------------------------------------------
// Pragmas.

// allowDirective is the suppression pragma prefix. The full form is
// `//hsd:allow <analyzer> <justification>`; the justification is
// mandatory by convention but not enforced beyond being non-empty.
const allowDirective = "hsd:allow"

// allowed reports whether a finding by analyzer at position p is
// suppressed: an //hsd:allow naming the analyzer (or "all") trailing
// the same line, or alone on the line directly above.
func (prog *Program) allowed(analyzer string, p token.Position) bool {
	for _, pkg := range prog.Packages {
		src, ok := pkg.Sources[p.Filename]
		if !ok {
			continue
		}
		for _, f := range pkg.Files {
			tf := prog.Fset.File(f.Pos())
			if tf == nil || tf.Name() != p.Filename {
				continue
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					name, ok := parseAllow(c.Text)
					if !ok || (name != analyzer && name != "all") {
						continue
					}
					cp := prog.Fset.Position(c.Pos())
					if cp.Line == p.Line {
						return true
					}
					if cp.Line == p.Line-1 && commentAlone(src, cp) {
						return true
					}
				}
			}
		}
	}
	return false
}

// parseAllow extracts the analyzer name from an //hsd:allow comment.
func parseAllow(text string) (string, bool) {
	body, ok := directiveBody(text, allowDirective)
	if !ok {
		return "", false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", false
	}
	return fields[0], true
}

// directiveBody returns the text after `//<name>` if the comment is
// that directive (no space between // and the name, per Go directive
// convention).
func directiveBody(text, name string) (string, bool) {
	if !strings.HasPrefix(text, "//"+name) {
		return "", false
	}
	rest := text[2+len(name):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return rest, true
}

// hasDirective reports whether the comment group contains the given
// //hsd:* directive (marker pragmas such as hsd:bitident).
func hasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if _, ok := directiveBody(c.Text, name); ok {
			return true
		}
	}
	return false
}

// commentAlone reports whether the comment starting at cp is the only
// thing on its source line (so it applies to the line below, not to
// code sharing its line).
func commentAlone(src []byte, cp token.Position) bool {
	line := sourceLine(src, cp.Line)
	head := line[:min(cp.Column-1, len(line))]
	return strings.TrimSpace(head) == ""
}

// sourceLine returns 1-based line n of src (without the newline).
func sourceLine(src []byte, n int) string {
	start := 0
	for l := 1; l < n; l++ {
		i := indexByte(src[start:], '\n')
		if i < 0 {
			return ""
		}
		start += i + 1
	}
	end := indexByte(src[start:], '\n')
	if end < 0 {
		end = len(src) - start
	}
	return string(src[start : start+end])
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

// ---------------------------------------------------------------------
// Shared type/AST helpers.

// funcObj resolves a call expression's callee to its function object
// (package-level function or method), or nil for calls through
// function-typed variables, interfaces and built-ins.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isFloat reports whether t is a floating-point type (incl. untyped
// float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
