package analysis

import (
	"go/ast"
	"go/types"
)

// Shared pass plumbing: the per-package function index and the
// per-program CFG cache the analyzers draw from.

// FuncDecls returns the package's function and method declarations
// (with bodies) keyed by their defining object, built once per package.
func (pkg *Package) FuncDecls() map[types.Object]*ast.FuncDecl {
	if pkg.funcs != nil {
		return pkg.funcs
	}
	pkg.funcs = map[types.Object]*ast.FuncDecl{}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pkg.Info.Defs[fd.Name]; obj != nil {
				pkg.funcs[obj] = fd
			}
		}
	}
	return pkg.funcs
}

// CFGOf returns the (cached) CFG of a function declaration.
func (prog *Program) CFGOf(fd *ast.FuncDecl) *CFG {
	if prog.cfgs == nil {
		prog.cfgs = map[*ast.FuncDecl]*CFG{}
	}
	if g, ok := prog.cfgs[fd]; ok {
		return g
	}
	g := BuildCFG(fd.Body)
	prog.cfgs[fd] = g
	return g
}

// eachFuncDecl visits every function declaration with a body, in file
// order — the iteration shape shared by the statement-level analyzers.
func (pkg *Package) eachFuncDecl(visit func(fd *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				visit(fd)
			}
		}
	}
}

// recvOf returns the receiver expression of a method-style call
// (x.Sel(...)), or nil.
func recvOf(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// terminalObj resolves the object an expression chain ends in: the
// field var of a selector (via Selections) or the var of an identifier.
// It answers "which declared thing is this?" for lock receivers and
// channel operands.
func terminalObj(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[e]; obj != nil {
			return obj
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[e]; ok {
			return s.Obj()
		}
		// Package-qualified selector (pkg.Var).
		if obj := info.Uses[e.Sel]; obj != nil {
			return obj
		}
	case *ast.UnaryExpr:
		return terminalObj(info, e.X)
	}
	return nil
}
