package analysis

import (
	"go/ast"
	"go/types"
)

// Symbol keys for unitflow's signature registry: a declaration and a
// resolved reference to it must build the same key, "pkg/path.Name" for
// package-level names and "pkg/path.Recv.Name" for methods.

// SymKey builds the key of a function declaration in the package at path.
func SymKey(path string, fd *ast.FuncDecl) string {
	key := path + "."
	if name := RecvName(fd); name != "" {
		key += name + "."
	}
	return key + fd.Name.Name
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
