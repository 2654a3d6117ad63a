// Command slltlint is the repository's static-analysis suite: a
// multichecker driving the custom analyzers in internal/analysis over the
// module. It exists because the paper's comparisons are only meaningful if
// CBS/DME/partitioning are bit-reproducible for a given seed and the
// server's loops stay cancellable — properties too easy to regress
// silently: one `range` over a map, one wall-clock seed, one detached
// context.
//
// Usage:
//
//	go run ./cmd/slltlint [flags] [patterns...]
//
// Patterns default to ./... and are resolved by the go tool.
//
// Exit status:
//
//	0  no findings
//	1  findings
//	2  package load failure, type errors, or internal error
//
// Output defaults to one line per finding; -sarif emits a SARIF 2.1.0 log
// for code-scanning upload instead. Suppress an individual finding with a
// justified directive on or above the flagged line:
//
//	//slltlint:ignore maporder commutative reduction, order cannot leak
//
// The reason after the analyzer names is mandatory; a directive without
// one suppresses nothing.
package main

import (
	"flag"
	"fmt"
	"os"

	"sllt/internal/analysis"
	"sllt/internal/analysis/registry"
)

// analyzers is the full roster; registry.All keeps it in one place so the
// CLI, CI and the metadata tests can never disagree about what runs.
var analyzers = registry.All()

func usage(fs *flag.FlagSet) func() {
	return func() {
		fmt.Fprintf(fs.Output(),
			`usage: slltlint [flags] [patterns...]

Runs the repository's custom analyzers over the packages matched by the
patterns (default ./...).

Exit status:
  0  no findings
  1  findings
  2  package load failure, type errors, or internal error

Flags:
`)
		fs.PrintDefaults()
	}
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one lint invocation; split from main (and parameterized on
// args) so the CLI behavior is testable in-process.
func run(args []string) int {
	fs := flag.NewFlagSet("slltlint", flag.ExitOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	verbose := fs.Bool("v", false, "print the packages as they are checked")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	fs.Usage = usage(fs)
	fs.Parse(args)

	if *list {
		for _, az := range analyzers {
			fmt.Printf("%-12s %s\n", az.Name, az.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	failed := false
	root := ""
	for _, pkg := range pkgs {
		if root == "" {
			root = pkg.ModDir
		}
		if len(pkg.TypeErrors) > 0 {
			failed = true
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "%s: %v\n", pkg.ImportPath, e)
			}
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "checking %s (%d files)\n", pkg.ImportPath, len(pkg.Files))
		}
	}
	if failed {
		fmt.Fprintln(os.Stderr, "slltlint: type errors; aborting")
		return 2
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	if *sarifOut {
		if err := analysis.WriteSARIF(os.Stdout, diags, analyzers, root); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "slltlint: %d finding(s) in %d package(s) checked\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}
