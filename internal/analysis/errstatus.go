package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ErrStatus polices how typed errors are tested: with errors.Is /
// errors.As, never with ==/!= against a sentinel or a direct type
// assertion. Wrapped errors (%w) silently break both of the latter;
// this codebase wraps. (err == nil stays idiomatic and is not touched.)
var ErrStatus = &Analyzer{
	Name: "errstatus",
	Doc:  "test errors with errors.Is/As, not ==/!= or a type assertion",
	Run:  runErrStatus,
}

func runErrStatus(prog *Program, r *Reporter) {
	for _, pkg := range prog.Packages {
		pkg.eachFuncDecl(func(fd *ast.FuncDecl) {
			checkErrComparisons(pkg, fd, r)
		})
	}
}

// checkErrComparisons flags ==/!= against non-nil errors and type
// assertions on error values.
func checkErrComparisons(pkg *Package, fd *ast.FuncDecl, r *Reporter) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op != token.EQL && n.Op != token.NEQ {
				return true
			}
			if isNilExpr(pkg.Info, n.X) || isNilExpr(pkg.Info, n.Y) {
				return true
			}
			if isErrorExpr(pkg.Info, n.X) && isErrorExpr(pkg.Info, n.Y) {
				r.Reportf(n.OpPos, "comparing errors with %s misses wrapped errors: use errors.Is", n.Op)
			}
		case *ast.TypeAssertExpr:
			if n.Type == nil {
				return true // type switch: handled as idiomatic
			}
			if !isErrorIface(pkg.Info.TypeOf(n.X)) {
				return true
			}
			if t := pkg.Info.TypeOf(n.Type); t != nil && typeImplementsError(t) {
				r.Reportf(n.Pos(), "type-asserting an error misses wrapped errors: use errors.As")
			}
		}
		return true
	})
}

// isErrorIface reports whether t is exactly the predeclared error
// interface.
func isErrorIface(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}

// isErrorExpr reports whether e's static type implements error.
func isErrorExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && typeImplementsError(t)
}

// typeImplementsError reports whether t implements the error interface.
func typeImplementsError(t types.Type) bool {
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface)
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	return ok && tv.IsNil()
}
