package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/invariants"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// lefName is the cell library every input directory holds.
const lefName = "sim28.lef"

// input is one design on disk, as cmd/slltcts reads it.
type input struct {
	name     string
	lefPath  string
	defPath  string
	sinks    int
	defBytes int64
}

// lefText is the generator's cell library, buffers included.
func lefText() string {
	return designgen.LEF(designgen.BufferMacros(liberty.Default())).WriteLEF()
}

// writeLEF writes lefText into dir.
func writeLEF(dir string) error {
	return os.WriteFile(filepath.Join(dir, lefName), []byte(lefText()), 0o644)
}

// writeInput streams d into dir/file and describes it as an input; the
// directory must already hold the LEF.
func writeInput(dir, file string, d *design.Design) (input, error) {
	in := input{name: d.Name, lefPath: filepath.Join(dir, lefName), defPath: filepath.Join(dir, file), sinks: d.NumFFs()}
	f, err := os.Create(in.defPath)
	if err != nil {
		return in, err
	}
	if err := designgen.StreamDEF(f, d); err != nil {
		f.Close()
		return in, err
	}
	if err := f.Close(); err != nil {
		return in, err
	}
	st, err := os.Stat(in.defPath)
	if err != nil {
		return in, err
	}
	in.defBytes = st.Size()
	return in, nil
}

// moveSinks nudges the first 1% of d's sinks (at least one) by a sub-site
// step, 50 x 25 nm: the ECO perturbation of an incremental legalization
// pass, small enough to leave k-means membership alone unless annealing
// cascades.
func moveSinks(d *design.Design) {
	n := d.NumFFs() / 100
	if n < 1 {
		n = 1
	}
	for i := range d.Insts {
		if n == 0 {
			return
		}
		if d.Insts[i].IsSink {
			d.Insts[i].Loc.X += 0.05
			d.Insts[i].Loc.Y += 0.025
			n--
		}
	}
}

// writeInputs generates every spec at seed into dir, with the LEF.
func writeInputs(dir string, specs []designgen.Spec, seed int64) ([]input, error) {
	if err := writeLEF(dir); err != nil {
		return nil, err
	}
	var ins []input
	for _, spec := range specs {
		in, err := writeInput(dir, spec.Name+".def", designgen.Generate(spec, seed))
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// flowRun is one pass of the cmd/slltcts call sequence over an input, with
// the wall time of the calls the traced run reports, in seconds.
type flowRun struct {
	parseDEF, fromLEFDEF, cts, export float64
	total                             float64 // LEF open to output DEF closed
	outBytes                          int64
	d                                 *design.Design
	res                               *cts.Result
	outPath                           string
}

// load is the set-up half of cmd/slltcts: parse the LEF and the DEF, build
// the design database. It records the DEF parse and the database build's
// wall times in r.
func load(in input, r *flowRun) error {
	lef, err := parseFile(in.lefPath, lefdef.ParseLEFReader)
	if err != nil {
		return err
	}
	t1 := time.Now()
	def, err := parseFile(in.defPath, lefdef.ParseDEFReader)
	if err != nil {
		return err
	}
	t2 := time.Now()
	if r.d, err = design.FromLEFDEF(lef, def, ""); err != nil {
		return err
	}
	r.parseDEF = t2.Sub(t1).Seconds()
	r.fromLEFDEF = time.Since(t2).Seconds()
	return nil
}

// setupOnly times load alone, in seconds.
func setupOnly(in input) (float64, error) {
	start := time.Now()
	err := load(in, &flowRun{})
	return time.Since(start).Seconds(), err
}

// runPipeline drives cmd/slltcts's call sequence — LEF and DEF parse,
// design database, synthesis, export to a file — timing each call.
func runPipeline(in input, opts cts.Options, outPath string) (*flowRun, error) {
	r := &flowRun{outPath: outPath}
	t0 := time.Now()
	if err := load(in, r); err != nil {
		return nil, err
	}
	t1 := time.Now()
	var err error
	if r.res, err = cts.Run(r.d, opts); err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	t2 := time.Now()
	if r.outBytes, err = exportFile(outPath, r.d, r.res); err != nil {
		return nil, err
	}
	t3 := time.Now()
	r.cts = t2.Sub(t1).Seconds()
	r.export = t3.Sub(t2).Seconds()
	r.total = t3.Sub(t0).Seconds()
	return r, nil
}

func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return v, nil
}

// exportFile streams the post-CTS DEF to path and returns its size.
func exportFile(path string, d *design.Design, res *cts.Result) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if _, err := cts.ExportDEFWriter(f, d, res); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// checked is what the correctness checks of one run learned.
type checked struct {
	sha     string  // of the exported DEF file
	analyze float64 // s, the outside timing.Analyze call
}

// checkRun verifies one run: every design sink is exactly one tree leaf and
// the tree passes invariants.CheckTree; timing.Analyze on the final tree
// reproduces res.Report; the exported DEF re-parses and connects every sink
// exactly once.
func checkRun(r *flowRun, opts cts.Options) (checked, error) {
	var c checked
	if err := checkTree(r.d, r.res); err != nil {
		return c, err
	}
	start := time.Now()
	rep, err := timing.Analyze(r.res.Tree, opts.Lib, opts.Tech, opts.SourceSlew)
	c.analyze = time.Since(start).Seconds()
	if err != nil {
		return c, fmt.Errorf("%s: timing.Analyze: %w", r.d.Name, err)
	}
	if !reflect.DeepEqual(rep, r.res.Report) {
		return c, fmt.Errorf("%s: timing.Analyze of the final tree differs from the flow's report", r.d.Name)
	}
	data, err := os.ReadFile(r.outPath)
	if err != nil {
		return c, err
	}
	if err := checkDEF(data, r.d, r.res.Report.Buffers); err != nil {
		return c, fmt.Errorf("%s: %w", r.d.Name, err)
	}
	c.sha = digest(data)
	return c, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// checkTree verifies that every sink of d is exactly one leaf of the tree,
// under its own name, and that the tree is structurally sound.
func checkTree(d *design.Design, res *cts.Result) error {
	sinks := d.Net().Sinks
	seen := make([]int, len(sinks))
	var bad error
	res.Tree.Walk(func(n *tree.Node) bool {
		if n.Kind != tree.Sink || bad != nil {
			return bad == nil
		}
		if n.SinkIdx < 0 || n.SinkIdx >= len(sinks) || sinks[n.SinkIdx].Name != n.Name {
			bad = fmt.Errorf("%s: tree leaf %q (index %d) is not a design sink", d.Name, n.Name, n.SinkIdx)
			return false
		}
		seen[n.SinkIdx]++
		return true
	})
	if bad != nil {
		return bad
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("%s: sink %s is %d tree leaves, want 1", d.Name, sinks[i].Name, c)
		}
	}
	if err := invariants.CheckTree(res.Tree); err != nil {
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	return nil
}

// checkDEF re-parses an exported DEF and checks it against the design: the
// original components plus one per reported buffer, and clock nets that
// connect every sink pin exactly once and no other design pin.
func checkDEF(data []byte, d *design.Design, buffers int) error {
	def, err := lefdef.ParseDEFReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("exported DEF does not re-parse: %w", err)
	}
	if got := len(def.Components) - len(d.Insts); got != buffers {
		return fmt.Errorf("exported DEF adds %d components, report has %d buffers", got, buffers)
	}
	placed := make(map[string]bool, len(d.Insts))
	conns := make(map[string]int)
	for i := range d.Insts {
		placed[d.Insts[i].Name] = true
		if d.Insts[i].IsSink {
			conns[d.Insts[i].Name+"/"+d.Insts[i].ClockPin] = 0
		}
	}
	for _, n := range def.Nets {
		if n.Use != "CLOCK" {
			continue
		}
		for _, c := range n.Conns {
			if !placed[c.Comp] {
				continue // the clock IO pin or an inserted buffer
			}
			pin := c.Comp + "/" + c.Pin
			k, ok := conns[pin]
			if !ok {
				return fmt.Errorf("exported clock net %s connects %s, which is not a sink", n.Name, pin)
			}
			conns[pin] = k + 1
		}
	}
	for i := range d.Insts {
		if !d.Insts[i].IsSink {
			continue
		}
		pin := d.Insts[i].Name + "/" + d.Insts[i].ClockPin
		if k := conns[pin]; k != 1 {
			return fmt.Errorf("exported DEF connects sink %s %d times, want 1", pin, k)
		}
	}
	return nil
}
