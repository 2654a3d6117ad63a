package lefdef

import "testing"

// Guard fixtures: a preallocated append buffer and sinks that keep the
// compiler from discarding the guarded calls.
var (
	guardAppendBuf = make([]byte, 0, 64)

	guardSinkN int
	guardSinkB bool
	guardSinkS []byte
)

// skipInput and tokenInput build guard inputs over one token-stream
// fragment, converted to bytes once, outside the measured call.
func skipInput(data string, inComment, atEOF bool) func() {
	b := []byte(data)
	return func() { guardSinkN, guardSinkB, _ = skipBlanks(b, inComment, atEOF) }
}

func tokenInput(data string, atEOF bool, start int) func() {
	b := []byte(data)
	return func() { guardSinkN, guardSinkB = scanToken(b, atEOF, start) }
}

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"skipBlanks": {
		skipInput("  # comment line\n  COMPONENTS 42 ;\n", false, true),
		skipInput("# comment still open", false, false),
		skipInput("\u00a0é", false, true), // NBSP is blank, é starts a token
		skipInput("\xc3", false, false),   // a partial rune needs more data
		skipInput(" \t\r\n", false, true),
	},
	"scanToken": {
		tokenInput("(", true, 0),
		tokenInput("clkbuf_0001(x", true, 0),
		tokenInput("net1 x", true, 0),
		tokenInput("é\xc3", false, 0),   // é, then a partial rune
		tokenInput("a\u0085b", true, 0), // NEL ends the token
		tokenInput("abc", true, 1),
	},
	"appendInt":    {func() { guardSinkS = appendInt(guardAppendBuf[:0], -1234567) }},
	"appendScaled": {func() { guardSinkS = appendScaled(guardAppendBuf[:0], 123.4567, 1000) }},
	"appendFixed4": {func() { guardSinkS = appendFixed4(guardAppendBuf[:0], 3.14159) }},
}

func TestAllocFreeGuards(t *testing.T) {
	for name, inputs := range allocFreeGuards {
		t.Run(name, func(t *testing.T) {
			for i, fn := range inputs {
				if n := testing.AllocsPerRun(100, fn); n != 0 {
					t.Errorf("input %d allocates %.1f times per op, want 0", i, n)
				}
			}
		})
	}
}
