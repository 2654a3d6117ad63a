package cache

import "testing"

// guardHasher is reused across runs; guardReset truncates it in place so
// every guarded write lands in the hasher's existing backing, mirroring the
// steady state of a key computation. It is built without NewHasher, whose
// salt write would run Str and u64 outside their guards.
var (
	guardHasher = &Hasher{buf: make([]byte, 0, 256)}
	guardSinkK  Key
)

func guardReset() *Hasher {
	guardHasher.buf = guardHasher.buf[:0]
	return guardHasher
}

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"Hasher.u64": {func() { guardReset().u64(42) }},
	"Hasher.Str": {func() { guardReset().Str("key") }},
	"Hasher.I64": {func() { guardReset().I64(-7) }},
	"Hasher.Int": {func() { guardReset().Int(7) }},
	"Hasher.F64": {func() { guardReset().F64(3.25) }},
	"Hasher.Bool": {
		func() { guardReset().Bool(true) },
		func() { guardReset().Bool(false) },
	},
	"Hasher.List": {func() { guardReset().List(3) }},
	"Hasher.Sum":  {func() { guardSinkK = guardReset().Str("x").Sum() }},
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
