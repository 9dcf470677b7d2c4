package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// Import paths of the packages whose APIs the analyzers model. The
// root converse package re-exports the core through type aliases and
// thin wrappers, so type-based checks against the internal paths cover
// its callers too; its wrapper functions are matched by (package,
// name) pairs. Thread and sync callers import internal/cth and
// internal/csync directly.
const (
	corePath   = "converse/internal/core"
	facadePath = "converse"
	cthPath    = "converse/internal/cth"
	csyncPath  = "converse/internal/csync"
)

// calleeOf resolves a call expression to the function or method object
// it invokes, or nil for indirect calls, conversions and builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package defining fn ("" for
// builtins and error.Error).
func pkgPathOf(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// isPkgFunc reports whether fn is the package-level function
// path.name. The converse facade wraps core's message helpers in new
// functions, so call sites match either package.
func isPkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Name() == name && pkgPathOf(fn) == path &&
		fn.Type().(*types.Signature).Recv() == nil
}

// isCoreMsgFunc matches the message-helper function name in either the
// core package or its public facade.
func isCoreMsgFunc(fn *types.Func, name string) bool {
	return isPkgFunc(fn, corePath, name) || isPkgFunc(fn, facadePath, name)
}

// recvNamed returns the defining named type of fn's receiver (through
// one pointer), or nil for package-level functions.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isMethod reports whether fn is the method path.typeName.name.
func isMethod(fn *types.Func, path, typeName, name string) bool {
	named := recvNamed(fn)
	if named == nil || fn.Name() != name {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// isProcMethod reports whether fn is the named method on core.Proc.
func isProcMethod(fn *types.Func, name string) bool {
	return isMethod(fn, corePath, "Proc", name)
}

// hasTransferOpt reports whether any of the given arguments is a
// SendOpt constant with the Transfer bit set (core.Transfer == 1<<0).
// Non-constant SendOpt expressions are treated as not transferring:
// the analyzer only asserts what it can prove.
func hasTransferOpt(info *types.Info, args []ast.Expr) bool {
	for _, a := range args {
		tv, ok := info.Types[a]
		if !ok || tv.Value == nil {
			continue
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() != "SendOpt" || obj.Pkg() == nil || obj.Pkg().Path() != corePath {
			continue
		}
		if v, ok := constant.Int64Val(tv.Value); ok && v&1 != 0 {
			return true
		}
	}
	return false
}

// localVar returns the local variable (or parameter) object an
// expression names, unwrapping parentheses, or nil when the expression
// is anything else (selectors, indexes, calls...).
func localVar(info *types.Info, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		v, ok = info.Defs[id].(*types.Var)
	}
	if !ok || v.IsField() {
		return nil
	}
	return v
}
