package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// ctxSrc carries one ctxguard finding, context.Background() inside a
// function that already has a ctx parameter; %s is the line above it.
const ctxSrc = `package tmplint

import "context"

func lookup(ctx context.Context, key string) string { return key }

func Handle(ctx context.Context, key string) string {
	%s
	return lookup(context.Background(), key)
}
`

// TestExitStatus drives the CLI on a one-file temp module: a finding exits
// 1 in text and SARIF mode, only a justified directive above it makes the
// run exit 0, and a pattern that matches no package exits 2.
func TestExitStatus(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmplint\n\ngo 1.22\n")
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })

	const reason = "//slltlint:ignore ctxguard the caller outlives this request on purpose"
	for _, tc := range []struct {
		above string
		args  []string
		want  int
	}{
		{"// no directive", []string{"./..."}, 1},
		{"// no directive", []string{"-sarif", "./..."}, 1},
		{"//slltlint:ignore ctxguard", []string{"./..."}, 1},
		{reason, []string{"./..."}, 0},
		{reason, []string{"-sarif", "./..."}, 0},
		{"// no directive", []string{"./nosuchpkg"}, 2},
	} {
		write("lint.go", fmt.Sprintf(ctxSrc, tc.above))
		if got := run(tc.args); got != tc.want {
			t.Errorf("%q with %v: exit %d, want %d", tc.above, tc.args, got, tc.want)
		}
	}
}
