package cache

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	return k
}

func TestGetPutRoundTrip(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	v := []byte("payload")
	if _, ok, _ := c.Get("s", key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("s", key(1), v)
	got, ok, _ := c.Get("s", key(1))
	if !ok || !bytes.Equal(got, v) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, v)
	}
	st := c.Stats().Stages["s"]
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
}

// TestLRUEviction drives the memory tier past a tiny budget and checks the
// least-recently-used entries leave first — and that a touched entry is
// spared.
func TestLRUEviction(t *testing.T) {
	val := make([]byte, 256)
	// Budget for exactly 3 entries of (256 + entryOverhead) bytes.
	c, err := New(Config{MemBytes: 3 * (256 + entryOverhead)})
	if err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 3; b++ {
		c.Put("s", key(b), val)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3", c.Len())
	}
	// Touch 1 so 2 becomes the LRU victim.
	c.Get("s", key(1))
	c.Put("s", key(4), val)
	if c.Len() != 3 {
		t.Fatalf("len after eviction = %d, want 3", c.Len())
	}
	if _, ok, _ := c.Get("s", key(2)); ok {
		t.Error("LRU entry 2 survived eviction")
	}
	for _, b := range []byte{1, 3, 4} {
		if _, ok, _ := c.Get("s", key(b)); !ok {
			t.Errorf("entry %d evicted, want resident", b)
		}
	}
	if ev := c.Stats().Total().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
}

func TestOversizedValueNotAdmitted(t *testing.T) {
	c, err := New(Config{MemBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("s", key(1), make([]byte, 1024))
	if c.Len() != 0 {
		t.Error("value larger than the whole budget was admitted")
	}
}

// TestBytesWrittenCountsAdmittedOnly checks that BytesWritten counts only
// the bytes the memory tier keeps: a Put of a resident key and a Put of a
// value over the whole budget each count one put and no bytes.
func TestBytesWrittenCountsAdmittedOnly(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("s", key(1), []byte("val"))
	c.Put("s", key(1), []byte("val"))
	if s := c.Stats().Stages["s"]; s.Puts != 2 || s.BytesWritten != 3 {
		t.Errorf("two Puts of one key count puts %d and bytes %d, want 2 and 3", s.Puts, s.BytesWritten)
	}
	if c.Len() != 1 {
		t.Errorf("memory tier holds %d entries, want 1", c.Len())
	}

	small, err := New(Config{MemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if did := small.Put("s", key(1), make([]byte, 1000)); did.Puts != 1 || did.BytesWritten != 0 {
		t.Errorf("oversized Put returned puts %d and bytes %d, want 1 and 0", did.Puts, did.BytesWritten)
	}
	if s := small.Stats().Stages["s"]; s.BytesWritten != 0 {
		t.Errorf("oversized Put counts %d bytes written, want 0", s.BytesWritten)
	}
	if small.Len() != 0 {
		t.Errorf("memory tier holds %d entries, want 0", small.Len())
	}
}

// TestReject checks that Reject removes an entry from both tiers and
// recounts the lookup that returned it as a miss.
func TestReject(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("s", key(1), []byte("v"))
	if _, ok, _ := c.Get("s", key(1)); !ok {
		t.Fatal("stored entry not readable")
	}
	c.Reject("s", key(1))
	if s := c.Stats().Stages["s"]; s.Hits != 0 || s.Misses != 1 {
		t.Errorf("after Reject the store counts hits %d and misses %d, want 0 and 1", s.Hits, s.Misses)
	}
	if _, ok, _ := c.Get("s", key(1)); ok {
		t.Error("rejected entry still readable")
	}
	if _, err := os.Stat(c.disk.path(key(1))); !os.IsNotExist(err) {
		t.Error("rejected entry still on disk")
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok, _ := c.Get("s", key(1)); ok {
		t.Error("nil cache hit")
	}
	c.Put("s", key(1), []byte("v"))
	c.Reject("s", key(1))
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
	if got := c.Stats().Total(); got != (StageStats{}) {
		t.Error("nil cache has stats")
	}
}

// TestCallCounts checks that Get, Put and Reject each return exactly the
// counts they add to the store's statistics, so a caller that sums its own
// calls sees its own traffic and nobody else's.
func TestCallCounts(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	put := c.Put("a", key(1), []byte("val"))
	_, found, hit := c.Get("a", key(1))
	_, missFound, miss := c.Get("b", key(2))
	reject := c.Reject("a", key(1))
	if !found || missFound {
		t.Fatalf("Get found the stored key %v and the missing key %v, want true and false", found, missFound)
	}
	for _, tc := range []struct {
		call      string
		got, want StageStats
	}{
		{"Put", put, StageStats{Puts: 1, BytesWritten: 3}},
		{"Get of the stored key", hit, StageStats{Hits: 1}},
		{"Get of the missing key", miss, StageStats{Misses: 1}},
		{"Reject", reject, StageStats{Hits: -1, Misses: 1}},
	} {
		if tc.got != tc.want {
			t.Errorf("%s returned %+v, want %+v", tc.call, tc.got, tc.want)
		}
	}
	if got, want := c.Stats().Total(), put.Add(hit).Add(miss).Add(reject); got != want {
		t.Errorf("store totals %+v, want the calls' sum %+v", got, want)
	}
	if a := c.Stats().Stages["a"]; a != (StageStats{Misses: 1, Puts: 1, BytesWritten: 3}) {
		t.Errorf("stage a counts %+v, want one miss and one put", a)
	}
}

// TestDiskTierPromotion checks a fresh Cache over a warm directory serves
// from disk and promotes into memory (second Get reads no further bytes).
func TestDiskTierPromotion(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v := []byte("stage value bytes")
	c1.Put("s", key(7), v)

	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, _ := c2.Get("s", key(7))
	if !ok || !bytes.Equal(got, v) {
		t.Fatal("disk tier miss on warm directory")
	}
	r1 := c2.Stats().Total().BytesRead
	if r1 != int64(len(v)) {
		t.Errorf("bytes read = %d, want %d", r1, len(v))
	}
	c2.Get("s", key(7))
	if r2 := c2.Stats().Total().BytesRead; r2 != r1 {
		t.Error("second Get read from disk again; promotion failed")
	}
}

// TestDiskPromotionCountsEvictions promotes two disk entries into a memory
// tier that fits one: the second promotion evicts the first, and the
// eviction must show in the stats like one caused by a Put.
func TestDiskPromotionCountsEvictions(t *testing.T) {
	dir := t.TempDir()
	val := make([]byte, 256)
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("s", key(1), val)
	c1.Put("s", key(2), val)

	c2, err := New(Config{Dir: dir, MemBytes: 256 + entryOverhead})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{key(1), key(2)} {
		if _, ok, _ := c2.Get("s", k); !ok {
			t.Fatalf("disk tier miss on %x", k[0])
		}
	}
	if ev := c2.Stats().Total().Evictions; ev != 1 {
		t.Errorf("evictions = %d, want 1", ev)
	}
	if n := c2.Len(); n != 1 {
		t.Errorf("memory tier holds %d entries, want 1", n)
	}
}

// TestCorruptDiskEntryFallsBack flips one payload byte in a stored entry:
// the read must miss (recompute path), and the damaged file must be gone so
// the recompute's Put can rewrite it.
func TestCorruptDiskEntryFallsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put("s", key(3), []byte("precious bytes"))
	p := c.disk.path(key(3))

	corrupt := func(mut func([]byte) []byte) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, mut(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]func([]byte) []byte{
		"bit flip":  func(d []byte) []byte { d[entryHeaderLen] ^= 0x40; return d },
		"truncated": func(d []byte) []byte { return d[:len(d)-5] },
		"bad magic": func(d []byte) []byte { d[0] = 'X'; return d },
		"empty":     func(d []byte) []byte { return nil },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			fresh, err := New(Config{Dir: dir}) // cold memory, warm disk
			if err != nil {
				t.Fatal(err)
			}
			c.Put("s", key(3), []byte("precious bytes")) // restore
			corrupt(mut)
			if _, ok, _ := fresh.Get("s", key(3)); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Error("corrupt entry not deleted after failed read")
			}
			// The recompute path rewrites it; the rewrite must be readable.
			fresh.Put("s", key(3), []byte("precious bytes"))
			if _, ok, _ := fresh.Get("s", key(3)); !ok {
				t.Error("rewrite after corruption not readable")
			}
		})
	}
}

func TestEntryEncodeDecode(t *testing.T) {
	payload := []byte("some stage value")
	enc := EncodeEntry(payload)
	got, err := DecodeEntry(enc)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, %v", got, err)
	}
	if _, err := DecodeEntry(enc[:entryMinLen-1]); err == nil {
		t.Error("truncated entry decoded")
	}
	bad := append([]byte{}, enc...)
	bad[3] = 'x'
	if _, err := DecodeEntry(bad); err == nil {
		t.Error("bad magic decoded")
	}
	long := append([]byte{}, enc...)
	long[len(entryMagic)] = 0xff // declared length ~2^56: rejected pre-alloc
	if _, err := DecodeEntry(long); err == nil {
		t.Error("absurd declared length decoded")
	}
	flip := append([]byte{}, enc...)
	flip[entryHeaderLen] ^= 1
	if _, err := DecodeEntry(flip); err == nil {
		t.Error("checksum mismatch decoded")
	}
}

// TestConcurrentReadersWriters hammers one Cache from many goroutines (run
// under -race in CI): concurrent Get/Put on overlapping keys, including
// same-key races, must stay consistent — every hit returns the exact bytes
// some Put stored for that key.
func TestConcurrentReadersWriters(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MemBytes: 64 << 10, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	valFor := func(i int) []byte { return []byte(fmt.Sprintf("value-%03d", i%32)) }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(byte(i % 32))
				if got, ok, _ := c.Get("s", k); ok {
					if !bytes.Equal(got, valFor(i)) {
						t.Errorf("goroutine %d: key %d returned %q, want %q", g, i%32, got, valFor(i))
						return
					}
				} else {
					c.Put("s", k, valFor(i))
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHasherFraming(t *testing.T) {
	sum := func(f func(*Hasher)) Key {
		h := NewHasher("salt")
		f(h)
		return h.Sum()
	}
	if sum(func(h *Hasher) { h.Str("ab").Str("c") }) == sum(func(h *Hasher) { h.Str("a").Str("bc") }) {
		t.Error("string boundary collision")
	}
	if sum(func(h *Hasher) { h.I64(1).I64(2) }) == sum(func(h *Hasher) { h.Str("\x01\x02") }) {
		t.Error("cross-type collision")
	}
	if sum(func(h *Hasher) { h.List(2).Int(1).Int(2) }) == sum(func(h *Hasher) { h.List(1).Int(1).List(1).Int(2) }) {
		t.Error("list boundary collision")
	}
	if NewHasher("a").Sum() == NewHasher("b").Sum() {
		t.Error("salt not folded in")
	}
	if sum(func(h *Hasher) { h.F64(0) }) == sum(func(h *Hasher) { h.F64(negZero()) }) {
		t.Error("+0 and -0 hash equal; keys must be bit-pattern exact")
	}
}

// negZero returns IEEE-754 negative zero (the literal -0.0 is a constant
// expression Go folds to +0).
func negZero() float64 { return math.Copysign(0, -1) }

func TestEncDecRoundTrip(t *testing.T) {
	e := NewEnc(64)
	e.U64(42)
	e.I64(-7)
	e.Int(1 << 40)
	e.F64(3.14159)
	e.Str("hello")
	e.Str("")
	d := NewDec(e.Bytes())
	if v := d.U64(); v != 42 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -7 {
		t.Errorf("I64 = %d", v)
	}
	if v := d.Int(); v != 1<<40 {
		t.Errorf("Int = %d", v)
	}
	if v := d.F64(); v != 3.14159 {
		t.Errorf("F64 = %v", v)
	}
	if v := d.Str(); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	if v := d.Str(); v != "" {
		t.Errorf("empty Str = %q", v)
	}
	if !d.Done() {
		t.Errorf("not done: err=%v", d.Err())
	}
}

func TestDecErrorLatching(t *testing.T) {
	d := NewDec([]byte{1, 2, 3}) // too short for any read
	_ = d.U64()
	if d.Err() == nil {
		t.Fatal("truncated read did not error")
	}
	first := d.Err()
	_ = d.Str()
	_ = d.F64()
	if d.Err() != first {
		t.Error("later reads replaced the first error")
	}
	if d.Done() {
		t.Error("errored decoder reports done")
	}

	// A declared string length beyond the input must fail before allocating.
	e := NewEnc(16)
	e.U64(1 << 40)
	d2 := NewDec(e.Bytes())
	if s := d2.Str(); s != "" || d2.Err() == nil {
		t.Error("absurd string length decoded")
	}
}
