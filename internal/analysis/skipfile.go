package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// generatedRe matches the conventional generated-code marker defined by the
// Go team (https://go.dev/s/generatedcode): a line comment of the form
//
//	// Code generated <by tool> DO NOT EDIT.
//
// anywhere before the package clause.
var generatedRe = regexp.MustCompile(`^// Code generated .* DO NOT EDIT\.$`)

// IsGeneratedFile reports whether f carries the standard generated-code
// marker. Analyzers skip generated files: their findings are not actionable
// at the reported position (the generator, not the file, needs the fix).
func IsGeneratedFile(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if generatedRe.MatchString(c.Text) {
				return true
			}
		}
	}
	return false
}

// IsTestFile reports whether pos sits in a _test.go file. The loader does
// not load test packages today, but analyzers guard anyway so the rule set
// stays correct if test loading is ever enabled (tests are free to compare
// floats against goldens, read the wall clock, ...).
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// SkipFile is the shared skip policy for every analyzer in the suite: test
// files and generated files are exempt from the lint rules. Hoisted here so
// ctxguard and Pass.Preorder agree on one definition instead of carrying
// copies.
func SkipFile(fset *token.FileSet, f *ast.File) bool {
	return IsTestFile(fset, f.Pos()) || IsGeneratedFile(f)
}
