package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Symbol keys shared by the interprocedural analyzers (stagepure and
// unitflow): a declaration and a resolved reference to it must build the
// same key, "pkg/path.Name" for package-level names and
// "pkg/path.Recv.Name" for methods.

// SymKey builds the key of a function declaration in the package at path.
func SymKey(path string, fd *ast.FuncDecl) string {
	key := path + "."
	if name := RecvName(fd); name != "" {
		key += name + "."
	}
	return key + fd.Name.Name
}

// FuncKey builds the key of a resolved function; it matches SymKey of the
// function's declaration.
func FuncKey(fn *types.Func) string {
	key := fn.Pkg().Path() + "."
	if sig, _ := fn.Type().(*types.Signature); sig != nil && sig.Recv() != nil {
		if name := RecvTypeName(sig.Recv().Type()); name != "" {
			key += name + "."
		}
	}
	return key + fn.Name()
}

// GlobalKey returns the key of a package-level variable, or "".
func GlobalKey(obj types.Object) string {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

// RecvName returns the receiver type name of a method declaration, or ""
// for a plain function.
func RecvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// RecvTypeName peels pointers down to the named receiver type's name.
func RecvTypeName(t types.Type) string {
	for {
		switch x := t.(type) {
		case *types.Pointer:
			t = x.Elem()
		case *types.Named:
			return x.Obj().Name()
		default:
			return ""
		}
	}
}

// DisplayName renders a function declaration as "Name" or "Recv.Name", the
// form findings and call chains print.
func DisplayName(fd *ast.FuncDecl) string {
	if r := RecvName(fd); r != "" {
		return r + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// ModulePrefix derives the module path prefix from an import path: calls to
// module packages outside the lint batch cannot be verified and are
// reported as such.
func ModulePrefix(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i+1]
	}
	return path + "/"
}

// SortedKeys returns map keys in deterministic order.
func SortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
