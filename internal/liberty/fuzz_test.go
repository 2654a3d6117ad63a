package liberty

import (
	"reflect"
	"testing"
)

// FuzzParseLiberty asserts Parse returns errors — never panics — on
// arbitrary input, and that any library it accepts has at least one cell
// whose accessors are safe to call.
func FuzzParseLiberty(f *testing.F) {
	f.Add(GenerateSource("fuzz28", Default28nmSpecs()))
	f.Add(`library (l) { cell (b) { pin (i) { direction : input ; } pin (o) { direction : output ; timing () { cell_rise () { values ( "x" ) ; } } } } }`)
	f.Add(`library (l) { cell (b) { pin (i) { direction : input ; } pin (o) { direction : output ; timing () { cell_rise () { index_1 ( "1" ) ; values ( "" ) ; } } } } }`)
	f.Add("library (l) { /* unterminated")
	f.Add(`library (l) { k : "unterminated`)
	f.Add("library")
	f.Fuzz(func(t *testing.T, src string) {
		// The streaming lexer behind Parse must agree with the retained
		// legacy lexer on every input, error for error.
		lg, lerr := ParseASTLegacy(src)
		sg, serr := ParseAST(src)
		if (lerr == nil) != (serr == nil) || (lerr != nil && lerr.Error() != serr.Error()) {
			t.Fatalf("lexer divergence:\nlegacy: %v\nstream: %v", lerr, serr)
		}
		if lerr == nil && !reflect.DeepEqual(lg, sg) {
			t.Fatal("lexer divergence: ASTs differ")
		}
		lib, err := Parse(src)
		if err != nil {
			return
		}
		if len(lib.Cells) == 0 {
			t.Fatal("accepted library with no cells")
		}
		// The hot accessors assume a non-empty cell list; exercise them.
		_ = lib.Smallest()
		_ = lib.Strongest()
		_ = lib.InsertionDelayLowerBound(10)
	})
}
