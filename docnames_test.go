package sllt

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedTestName matches a test, benchmark or fuzz target name in prose.
var citedTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9][A-Za-z0-9_]*`)

// TestDocsCiteDeclaredTests: every Test…, Benchmark… or Fuzz… name that
// DESIGN.md, EXPERIMENTS.md, README.md, ROADMAP.md or the verify skill
// cites is a function declared in some _test.go file of the repository, so
// a renamed or deleted test cannot leave the docs pointing at nothing.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				declared[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range citedTestName.FindAllString(string(text), -1) {
			if !declared[name] {
				t.Errorf("%s cites %s, which no _test.go file declares", doc, name)
			}
		}
	}
}
