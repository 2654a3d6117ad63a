package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"sllt/internal/baseline"
	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/liberty"
)

// TestEngineKnobDefaults runs the command on a generated LEF/DEF pair. With
// no knob flag, -engine openroad and -engine commercial must each write the
// DEF that cts.Run produces under that proxy's own options on the same
// parsed design; a knob flag must move it.
func TestEngineKnobDefaults(t *testing.T) {
	dir := t.TempDir()
	lefPath, defPath := filepath.Join(dir, "sim28.lef"), filepath.Join(dir, "knobs.def")
	// A sparse placement: its sinks spread far enough that the commercial
	// proxy's 20 ps skew bound builds a different tree than 80 ps would.
	d := designgen.Generate(designgen.Spec{Name: "knobs", Insts: 1500, FFs: 300, Util: 0.1}, 1)
	for path, src := range map[string]string{
		lefPath: designgen.LEF(designgen.BufferMacros(liberty.Default())).WriteLEF(),
		defPath: designgen.DEF(d).WriteDEF(),
	} {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}

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
