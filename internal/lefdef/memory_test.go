package lefdef_test

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"sllt/internal/designgen"
	"sllt/internal/lefdef"
)

// memDelta runs op once between two GC'd MemStats readings and returns the
// bytes op allocated in total and the live-heap growth it left behind. The
// caller keeps op's result alive until memDelta returns.
func memDelta(t *testing.T, op func() error) (total, retained int64) {
	t.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := op(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc),
		int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// TestStreamParseMemoryBound holds the streaming parser's memory discipline
// on a ~100k-sink DEF: compared to the legacy path (whole file in a string,
// every token materialized, result substrings pinning the source), the
// streaming parse must allocate less in total, retain less while the result
// is live, and keep its transient working set — everything allocated but not
// retained — under 2x the file size. The transient is dominated by
// append-growth churn on the clock net's connection list (Go's large-slice
// growth allocates several generations of the final array), which scales
// with the design, never with token count; the legacy path's transient is
// ~30x the file. The retained ceiling is 3x the file: the parsed structure
// itself is about 1.7x the text (struct headers beat DEF syntax), and the
// margin must not mask a copy of the source sneaking back in.
//
// Not parallel: the MemStats deltas must see this test's allocations alone.
func TestStreamParseMemoryBound(t *testing.T) {
	const n = 100000
	path := filepath.Join(t.TempDir(), "mem.def")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	d := designgen.Generate(designgen.Spec{Name: "io_100000", Insts: 2 * n, FFs: n, Util: 0.62}, 1)
	if err := designgen.StreamDEF(f, d); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	fileBytes := st.Size()

	var legacyDEF, streamDEF *lefdef.DEF
	legacyTotal, legacyRetained := memDelta(t, func() error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		legacyDEF, err = lefdef.ParseDEFLegacy(string(src))
		return err
	})
	runtime.KeepAlive(legacyDEF)
	legacyDEF = nil
	streamTotal, streamRetained := memDelta(t, func() error {
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		streamDEF, err = lefdef.ParseDEFReader(in)
		return err
	})
	runtime.KeepAlive(streamDEF)

	t.Logf("n=%d bytes=%d stream{total=%d retained=%d} legacy{total=%d retained=%d}",
		n, fileBytes, streamTotal, streamRetained, legacyTotal, legacyRetained)
	if streamTotal >= legacyTotal {
		t.Errorf("streaming parse allocated %d bytes, legacy only %d", streamTotal, legacyTotal)
	}
	if streamRetained >= legacyRetained {
		t.Errorf("streaming parse retained %d bytes, legacy only %d", streamRetained, legacyRetained)
	}
	if transient := streamTotal - streamRetained; transient > 2*fileBytes {
		t.Errorf("streaming parse transient working set %d exceeds 2x file size %d", transient, fileBytes)
	}
	if streamRetained > 3*fileBytes {
		t.Errorf("streaming parse retained %d bytes, over 3x the %d-byte file", streamRetained, fileBytes)
	}
}
