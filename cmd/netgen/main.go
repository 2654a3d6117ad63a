// Command netgen synthesizes the benchmark designs of the paper's Table 4
// as LEF/DEF-lite files, so the flow tools can consume them exactly like
// real placements.
//
// Usage:
//
//	netgen -design s38584 -out bench/          # one design
//	netgen -design all -out bench/             # all ten designs
//	netgen -insts 5000 -ffs 1000 -util 0.6 -name custom -out bench/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/liberty"
)

func main() {
	name := flag.String("design", "", "Table 4 design name, or 'all'")
	outDir := flag.String("out", ".", "output directory")
	seed := flag.Int64("seed", 1, "placement seed")
	insts := flag.Int("insts", 0, "custom design: instance count")
	ffs := flag.Int("ffs", 0, "custom design: flip-flop count")
	util := flag.Float64("util", 0.6, "custom design: utilization")
	custom := flag.String("name", "custom", "custom design: name")
	flag.Parse()

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	lef := designgen.LEF(designgen.BufferMacros(liberty.Default()))
	lefPath := filepath.Join(*outDir, "sim28.lef")
	writeFile(lefPath, func(w io.Writer) error {
		_, err := lef.WriteTo(w)
		return err
	})
	fmt.Println("wrote", lefPath)

	var specs []designgen.Spec
	switch {
	case *insts > 0 && *ffs > 0:
		specs = []designgen.Spec{{Name: *custom, Insts: *insts, FFs: *ffs, Util: *util}}
	case *name == "all":
		specs = designgen.Table4()
	case *name != "":
		spec, err := designgen.FindSpec(*name)
		fatal(err)
		specs = []designgen.Spec{spec}
	default:
		flag.Usage()
		os.Exit(2)
	}

	for _, spec := range specs {
		d := designgen.Generate(spec, *seed)
		emit(*outDir, d)
	}
}

func emit(dir string, d *design.Design) {
	path := filepath.Join(dir, d.Name+".def")
	writeFile(path, func(w io.Writer) error { return designgen.StreamDEF(w, d) })
	fmt.Printf("wrote %s (%d insts, %d FFs, die %.0fx%.0f um)\n",
		path, len(d.Insts), d.NumFFs(), d.Die.W(), d.Die.H())
}

// writeFile streams write's output to path, so no file is ever held in
// memory whole.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	fatal(err)
	fatal(write(f))
	fatal(f.Close())
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "netgen:", err)
		os.Exit(1)
	}
}
