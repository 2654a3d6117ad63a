package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// wantRe matches expectation comments in fixture files:
//
//	return a == b // want "exact float comparison"
//
// Each quoted string is a substring one diagnostic on that line must
// contain. Lines without a want comment must produce no diagnostics.
var wantRe = regexp.MustCompile(`//\s*want((?:\s+"(?:[^"\\]|\\.)*")+)`)

var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

// RunTest loads the fixture packages at the given directories (relative to
// the calling test's working directory, conventionally testdata/src/<name>),
// runs the analyzer, and checks its diagnostics exactly against the
// fixtures' want comments: every expectation must be matched by a
// diagnostic and every diagnostic by an expectation.
func RunTest(t *testing.T, az *Analyzer, fixtureDirs ...string) {
	t.Helper()
	patterns := make([]string, len(fixtureDirs))
	for i, d := range fixtureDirs {
		patterns[i] = "./" + strings.TrimPrefix(d, "./")
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v", patterns)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("fixture %s has type errors: %v", pkg.ImportPath, pkg.TypeErrors)
		}
	}

	diags, err := Run(pkgs, []*Analyzer{az})
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		file string
		line int
	}
	wants := make(map[key][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					for _, q := range quotedRe.FindAllString(m[1], -1) {
						s, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
						k := key{pos.Filename, pos.Line}
						wants[k] = append(wants[k], s)
					}
				}
			}
		}
	}

	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, rest := range wants {
		for _, w := range rest {
			t.Errorf("%s:%d: no %s diagnostic containing %s",
				k.file, k.line, az.Name, fmt.Sprintf("%q", w))
		}
	}
}
