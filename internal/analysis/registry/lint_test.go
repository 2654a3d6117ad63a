package registry

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sllt/internal/analysis"
)

// lint runs the roster over the packages that ./... matches under dir and
// returns one line per problem: each type error, or, when there are none,
// each finding that no justified //slltlint:ignore directive suppresses.
// A load failure (an unresolvable import, a file the go tool cannot parse
// or compile) is the error, and so is a pattern that matches no package: a
// gate that checked nothing must not pass.
func lint(dir string) ([]string, error) {
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("no packages under %s", dir)
	}
	var problems []string
	for _, pkg := range pkgs {
		for _, e := range pkg.TypeErrors {
			problems = append(problems, fmt.Sprintf("%s: %v", pkg.ImportPath, e))
		}
	}
	if len(problems) > 0 {
		// Analyzer results on a package with type errors are unreliable.
		return problems, nil
	}
	diags, err := analysis.Run(pkgs, All())
	if err != nil {
		return nil, err
	}
	for _, d := range diags {
		problems = append(problems, d.String())
	}
	return problems, nil
}

// TestLintClean is the lint gate: the roster over every package of the
// module must load, typecheck and report nothing. A deliberate violation
// carries a //slltlint:ignore <analyzer> <reason> directive on or directly
// above its line.
func TestLintClean(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	// go test replays a cached pass until a file or directory this process
	// opened changes, and the loader lists packages in a child go process.
	// Opening every directory ./... searches lets a new file or package,
	// not only an edited one, invalidate that pass.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != root &&
			(strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	problems, err := lint(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// gateSrc carries one ctxguard finding, context.Background() inside a
// function that already has a ctx parameter. The first %s is the line
// above the finding, the second a trailing declaration.
const gateSrc = `package tmplint

import "context"

func lookup(ctx context.Context, key string) string { return key }

func Handle(ctx context.Context, key string) string {
	%s
	return lookup(context.Background(), key)
}
%s`

// TestLintGate drives the gate on a one-file temp module: a finding fails
// it, a directive without a reason still fails it, only a justified
// directive above the finding passes it, a type error fails it, and so
// does a module with no package to check.
func TestLintGate(t *testing.T) {
	const justified = "//slltlint:ignore ctxguard the caller outlives this request on purpose"
	for _, tc := range []struct {
		name  string
		src   string
		clean bool
	}{
		{"finding", fmt.Sprintf(gateSrc, "// no directive", ""), false},
		{"directive without reason", fmt.Sprintf(gateSrc, "//slltlint:ignore ctxguard", ""), false},
		{"justified directive", fmt.Sprintf(gateSrc, justified, ""), true},
		{"type error", fmt.Sprintf(gateSrc, justified, `var n int = "x"`+"\n"), false},
		{"no package", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			files := map[string]string{"go.mod": "module tmplint\n\ngo 1.22\n"}
			if tc.src != "" {
				files["lint.go"] = tc.src
			}
			for name, content := range files {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			problems, err := lint(dir)
			if clean := err == nil && len(problems) == 0; clean != tc.clean {
				t.Errorf("gate clean = %v, want %v (problems %q, error %v)", clean, tc.clean, problems, err)
			}
		})
	}
}
