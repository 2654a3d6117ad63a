package design_test

import (
	"os"
	"strings"
	"testing"

	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
)

// TestDEFRoundTrip reads DEF text into a design and writes it back with
// designgen.DEF: the output must be the parsed input written out, line for
// line, so no placement field is lost on the way in or out. The inputs are
// netgen's s38584 and testdata/placement.def, whose four components hold a
// PLACED FS and a FIXED S sink, an unplaced cell and a PLACED FN cell.
//
// Both sides go through one writer because parse and write are not inverse
// on every coordinate: the parser divides by the DBU and the writer
// truncates, so 128200 parses to 128.19999… and writes back as 128199.
func TestDEFRoundTrip(t *testing.T) {
	spec, err := designgen.FindSpec("s38584")
	if err != nil {
		t.Fatal(err)
	}
	placement, err := os.ReadFile("testdata/placement.def")
	if err != nil {
		t.Fatal(err)
	}
	lef := designgen.LEF(designgen.BufferMacros(liberty.Default())).WriteLEF()
	for name, src := range map[string]string{
		"s38584":    designgen.DEF(designgen.Generate(spec, 1)).WriteDEF(),
		"placement": string(placement),
	} {
		t.Run(name, func(t *testing.T) {
			in, err := lefdef.ParseDEF(src)
			if err != nil {
				t.Fatal(err)
			}
			d, err := design.Load(strings.NewReader(lef), strings.NewReader(src), "")
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if _, err := designgen.DEF(d).WriteTo(&out); err != nil {
				t.Fatal(err)
			}
			want, got := strings.Split(in.WriteDEF(), "\n"), strings.Split(out.String(), "\n")
			for i := range min(len(want), len(got)) {
				if got[i] != want[i] {
					t.Errorf("line %d: %q, want %q", i+1, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d lines, want %d", len(got), len(want))
			}
		})
	}
}
