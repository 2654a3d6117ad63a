package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sllt/internal/baseline"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/liberty"
)

// TestEngineKnobDefaults runs the command on a generated LEF/DEF pair. With
// no knob flag, -engine openroad and -engine commercial must each write the
// DEF that cts.Run produces under that proxy's own options on the same
// parsed design; a knob flag must move it.
func TestEngineKnobDefaults(t *testing.T) {
	dir := t.TempDir()
	// A sparse placement: its sinks spread far enough that the commercial
	// proxy's 20 ps skew bound builds a different tree than 80 ps would.
	lefPath, defPath := writeInputs(t, dir,
		designgen.Generate(designgen.Spec{Name: "knobs", Insts: 1500, FFs: 300, Util: 0.1}, 1))

	slltcts := func(args ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "cts.def")
		args = append([]string{"-lef", lefPath, "-def", defPath, "-out", out}, args...)
		if err := run(args, io.Discard); err != nil {
			t.Fatalf("slltcts %v: %v", args, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	reference := func(opts cts.Options) []byte {
		t.Helper()
		pd, err := loadDesign(lefPath, defPath, "")
		if err != nil {
			t.Fatal(err)
		}
		res, err := cts.Run(pd, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := cts.ExportDEFWriter(&buf, pd, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	openroad := reference(baseline.OpenROADLike())
	if got := slltcts("-engine", "openroad"); !bytes.Equal(got, openroad) {
		t.Error("-engine openroad DEF differs from cts.Run under baseline.OpenROADLike")
	}
	if got := slltcts("-engine", "commercial"); !bytes.Equal(got, reference(baseline.CommercialLike())) {
		t.Error("-engine commercial DEF differs from cts.Run under baseline.CommercialLike")
	}
	if got := slltcts("-engine", "openroad", "-fanout", "24"); bytes.Equal(got, openroad) {
		t.Error("-engine openroad -fanout 24 wrote the DEF of the proxy's own fanout")
	}
}

// TestEngineDigests writes s38584 as netgen writes it and runs the command
// under each engine: each post-CTS DEF must hash to its pinned SHA-256. The
// file path rounds every coordinate to the DEF's database units, so these
// DEFs are not the in-memory designs' that benchtab's TestFlowDigests pins.
// A change that moves a digest on purpose follows DESIGN.md's
// contract-change rule.
func TestEngineDigests(t *testing.T) {
	spec, err := designgen.FindSpec("s38584")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lefPath, defPath := writeInputs(t, dir, designgen.Generate(spec, 1))
	for _, c := range []struct{ engine, digest string }{
		{"ours", "706f7f2cf7ece2aaf28264fc381e10b454ebf569674e93a4279ea65996845c19"},
		{"openroad", "a4fd52c22e5a4fa1ebca14b09ad01bb38311a720eb83cd1793d3a27119b3b26d"},
		{"commercial", "f2a62c523831cb6bbaf693baadca307f61ec1c177133118353fc7f49a4af9066"},
	} {
		out := filepath.Join(dir, c.engine+".def")
		if err := run([]string{"-lef", lefPath, "-def", defPath, "-engine", c.engine, "-out", out}, io.Discard); err != nil {
			t.Fatalf("-engine %s: %v", c.engine, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != c.digest {
			t.Errorf("-engine %s: DEF digest %s, want %s", c.engine, got, c.digest)
		}
	}
}

// TestUnwritableOut checks that an -out path the command cannot create
// fails the run with the path's error.
func TestUnwritableOut(t *testing.T) {
	dir := t.TempDir()
	lefPath, defPath := writeInputs(t, dir,
		designgen.Generate(designgen.Spec{Name: "unwritable", Insts: 200, FFs: 40, Util: 0.6}, 1))
	out := filepath.Join(dir, "no", "such", "dir", "out.def")
	err := run([]string{"-lef", lefPath, "-def", defPath, "-out", out}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), out) {
		t.Errorf("run = %v, want an error naming %s", err, out)
	}
}

// writeInputs writes d and the library's LEF into dir as netgen does,
// streaming each through its WriteTo, and returns their paths.
func writeInputs(t *testing.T, dir string, d *design.Design) (lefPath, defPath string) {
	t.Helper()
	lefPath, defPath = filepath.Join(dir, "sim28.lef"), filepath.Join(dir, d.Name+".def")
	lef := designgen.LEF(designgen.BufferMacros(liberty.Default()))
	for path, write := range map[string]func(io.Writer) error{
		lefPath: func(w io.Writer) error { _, err := lef.WriteTo(w); return err },
		defPath: func(w io.Writer) error { return designgen.StreamDEF(w, d) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return lefPath, defPath
}
