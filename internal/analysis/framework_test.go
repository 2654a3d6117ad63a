package analysis

import (
	"go/ast"
	"strings"
	"testing"
)

// funcReporter is a test analyzer that reports once per function
// declaration, which makes suppression behavior directly countable.
func funcReporter(name string) *Analyzer {
	return &Analyzer{
		Name: name,
		Doc:  "reports every function declaration (test analyzer)",
		Run: func(p *Pass) error {
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						p.Reportf(fd.Name.Pos(), "func %s", fd.Name.Name)
					}
				}
			}
			return nil
		},
	}
}

// A justified //slltlint:ignore must suppress a matching analyzer and comma
// lists must apply to every listed name. A directive for a different
// analyzer, one without a reason, and the retired //lint:ignore spelling
// must not suppress anything.
func TestIgnoreDirectiveForms(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/ignorefix")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, []*Analyzer{funcReporter("testrule")})
	if err != nil {
		t.Fatal(err)
	}
	var survived []string
	for _, d := range diags {
		survived = append(survived, strings.TrimPrefix(d.Message, "func "))
	}
	want := []string{"A", "C", "D", "F"}
	if strings.Join(survived, ",") != strings.Join(want, ",") {
		t.Errorf("surviving diagnostics = %v, want %v", survived, want)
	}
}
