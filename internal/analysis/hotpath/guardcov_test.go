package hotpath

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"sllt/internal/analysis"
)

// TestGuardCoverage walks the module source and cross-checks the alloc-free
// annotations against their AllocsPerRun guards: every function carrying a
// // hot: alloc-free directive must have an entry in its package's
// allocFreeGuards map (hot_guard_test.go), and every guard entry must point
// at a still-annotated function. The pairing is what turns the static
// analyzer's verdict into a regression test — an annotation without a guard
// is an unpinned claim, a guard without an annotation is stale.
func TestGuardCoverage(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	annotated := map[string]map[string]bool{} // package dir -> display names
	walkErr := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || (strings.HasPrefix(name, ".") && path != root) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if tier, ok := directiveIn(fd.Doc); ok && tier == tierAllocFree {
				dir := filepath.Dir(path)
				if annotated[dir] == nil {
					annotated[dir] = map[string]bool{}
				}
				annotated[dir][analysis.DisplayName(fd)] = true
			}
		}
		return nil
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	if len(annotated) == 0 {
		t.Fatal("no // hot: alloc-free annotations found in the module")
	}
	dirs := make([]string, 0, len(annotated))
	for dir := range annotated {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		names := annotated[dir]
		rel, _ := filepath.Rel(root, dir)
		guarded, err := guardKeys(fset, filepath.Join(dir, "hot_guard_test.go"))
		if err != nil {
			t.Errorf("%s: %d alloc-free kernel(s) but no readable hot_guard_test.go: %v", rel, len(names), err)
			continue
		}
		for _, name := range sortedNames(names) {
			if !guarded[name] {
				t.Errorf("%s: alloc-free kernel %s has no allocFreeGuards entry in hot_guard_test.go", rel, name)
			}
		}
		for _, name := range sortedNames(guarded) {
			if !names[name] {
				t.Errorf("%s: allocFreeGuards entry %q matches no // hot: alloc-free function", rel, name)
			}
		}
	}
}

// guardKeys parses a hot_guard_test.go file and returns the string keys of
// its package-level allocFreeGuards map literal.
func guardKeys(fset *token.FileSet, path string) (map[string]bool, error) {
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, ident := range vs.Names {
				if ident.Name != "allocFreeGuards" || i >= len(vs.Values) {
					continue
				}
				cl, ok := vs.Values[i].(*ast.CompositeLit)
				if !ok {
					continue
				}
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							keys[s] = true
						}
					}
				}
			}
		}
	}
	return keys, nil
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
