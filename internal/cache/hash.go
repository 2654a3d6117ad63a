package cache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
)

// Hasher accumulates a canonical, collision-resistant encoding of a stage's
// inputs and folds it into a Key. Every write is framed with a type tag
// (and, for variable-length data, a length prefix), so distinct field
// sequences can never collide by concatenation — H("ab","c") ≠ H("a","bc"),
// H(int 1, int 2) ≠ H(string "\x01\x02").
//
// Floats are hashed by their IEEE-754 bit pattern: the cache key must
// distinguish inputs the flow's float arithmetic distinguishes, bit for bit.
type Hasher struct {
	buf []byte
}

// Tag bytes framing each written field.
const (
	tagString byte = 0x01
	tagBytes  byte = 0x02
	tagI64    byte = 0x03
	tagF64    byte = 0x04
	tagBool   byte = 0x05
	tagKey    byte = 0x06
	tagList   byte = 0x07
)

// NewHasher returns a Hasher seeded with the given salt (the code/schema
// version of the keyed computation — bump the salt to invalidate every key
// derived under the old scheme).
func NewHasher(salt string) *Hasher {
	h := &Hasher{buf: make([]byte, 0, 256)}
	h.Str(salt)
	return h
}

// u64 appends v big-endian; every framed write below funnels through it.
func (h *Hasher) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	h.buf = append(h.buf, b[:]...)
}

// Str appends a length-prefixed string field.
func (h *Hasher) Str(s string) *Hasher {
	h.buf = append(h.buf, tagString)
	h.u64(uint64(len(s)))
	h.buf = append(h.buf, s...)
	return h
}

// Bytes appends a length-prefixed raw byte field.
func (h *Hasher) Bytes(b []byte) *Hasher {
	h.buf = append(h.buf, tagBytes)
	h.u64(uint64(len(b)))
	h.buf = append(h.buf, b...)
	return h
}

// I64 appends a signed integer field.
func (h *Hasher) I64(v int64) *Hasher {
	h.buf = append(h.buf, tagI64)
	h.u64(uint64(v))
	return h
}

// Int appends an int field.
func (h *Hasher) Int(v int) *Hasher { return h.I64(int64(v)) }

// F64 appends a float field by bit pattern.
func (h *Hasher) F64(v float64) *Hasher {
	h.buf = append(h.buf, tagF64)
	h.u64(math.Float64bits(v))
	return h
}

// Bool appends a boolean field.
func (h *Hasher) Bool(v bool) *Hasher {
	h.buf = append(h.buf, tagBool)
	if v {
		h.buf = append(h.buf, 1)
	} else {
		h.buf = append(h.buf, 0)
	}
	return h
}

// Key appends another content address (hierarchical keying: a stage input
// that is itself the output of a keyed stage contributes its producer's key,
// not its bytes).
func (h *Hasher) Key(k Key) *Hasher {
	h.buf = append(h.buf, tagKey)
	h.buf = append(h.buf, k[:]...)
	return h
}

// List appends a list header with the element count; callers then write the
// elements. The explicit count keeps adjacent lists from merging.
func (h *Hasher) List(n int) *Hasher {
	h.buf = append(h.buf, tagList)
	h.u64(uint64(n))
	return h
}

// Sum finalizes the accumulated encoding into a Key. The Hasher remains
// usable (further writes extend the same encoding).
func (h *Hasher) Sum() Key { return Key(sha256.Sum256(h.buf)) }

// Reset truncates the accumulated encoding in place — keeping the backing
// buffer — and re-seeds it with salt, so one Hasher can key many records
// without reallocating.
func (h *Hasher) Reset(salt string) *Hasher {
	h.buf = h.buf[:0]
	return h.Str(salt)
}
