package lefdef

import (
	"fmt"
	"strconv"
)

// tokCursor adapts the streaming Scanner to the arbitrary-lookahead access
// pattern of the parsers. Tokens pulled from the scanner are copied into one
// growable byte buffer (offsets, not per-token allocations), so peek(k)
// stays valid across scanner refills; once every buffered token has been
// consumed the buffers recycle, bounding cursor memory by the longest
// statement rather than the file. The cursor also tracks the absolute token
// ordinal, which the LEF diagnostics embed ("at token %d") exactly like the
// legacy slice index.
type tokCursor struct {
	sc   *Scanner
	data []byte // stable bytes of the buffered tokens
	offs []int  // buffered token k is data[offs[k]:offs[k+1]]
	head int    // index of the next unconsumed buffered token
	base int    // absolute ordinal of buffered token 0
	done bool   // scanner exhausted
}

func newTokCursor(sc *Scanner) *tokCursor {
	return &tokCursor{sc: sc, offs: make([]int, 1, 16)}
}

func (c *tokCursor) buffered() int { return len(c.offs) - 1 }

// pos is the absolute ordinal of the next token — the index it would have
// had in the legacy token slice.
func (c *tokCursor) pos() int { return c.base + c.head }

// recycle resets the (fully consumed) buffers so statement-local lookahead
// reuses the same memory for the whole parse.
func (c *tokCursor) recycle() {
	c.base += c.head
	c.head = 0
	c.data = c.data[:0]
	c.offs = c.offs[:1]
}

// peek returns the k-th unconsumed token. The returned slice is valid only
// until the next call that buffers further tokens (a deeper peek or an
// advance past the buffer) — callers copy anything they keep. The
// already-buffered hit is split out so it inlines at the parsers' call
// sites; peekSlow pulls from the scanner.
func (c *tokCursor) peek(k int) ([]byte, bool) {
	if i := c.head + k; i < len(c.offs)-1 {
		return c.data[c.offs[i]:c.offs[i+1]], true
	}
	return c.peekSlow(k)
}

func (c *tokCursor) peekSlow(k int) ([]byte, bool) {
	for c.head+k >= c.buffered() {
		if c.done {
			return nil, false
		}
		if c.head > 0 && c.head == c.buffered() {
			c.recycle()
		}
		tok, ok := c.sc.Next()
		if !ok {
			c.done = true
			return nil, false
		}
		c.data = append(c.data, tok...)
		c.offs = append(c.offs, len(c.data))
	}
	return c.data[c.offs[c.head+k]:c.offs[c.head+k+1]], true
}

// advance consumes n tokens (clamped at end of input, matching the legacy
// parsers' unchecked index arithmetic). The buffered case stays inlinable;
// consuming the last buffered token goes through the slow path so the
// buffers recycle exactly as before.
func (c *tokCursor) advance(n int) {
	if c.head+n < len(c.offs)-1 {
		c.head += n
		return
	}
	c.advanceSlow(n)
}

func (c *tokCursor) advanceSlow(n int) {
	for n > 0 {
		if c.head < c.buffered() {
			c.head++
			n--
			continue
		}
		if _, ok := c.peek(0); !ok {
			return
		}
	}
	if c.head > 0 && c.head == c.buffered() {
		c.recycle()
	}
}

// num parses the k-th unconsumed token as a number. A token
// strconv.ParseFloat rejects is an error naming it, which the caller
// prefixes with the section and entry it sat in.
func (c *tokCursor) num(k int) (float64, error) {
	t, _ := c.peek(k)
	if v, ok := atofTok(t); ok {
		return v, nil
	}
	return 0, fmt.Errorf("bad number %q", t)
}

// skipStatement consumes tokens through the next ';' (or to end of input) —
// the cursor form of the legacy skipStatement.
func (c *tokCursor) skipStatement() {
	for {
		t, ok := c.peek(0)
		if !ok {
			return
		}
		c.advance(1)
		if len(t) == 1 && t[0] == ';' {
			return
		}
	}
}

// Token predicates. string(t) == s compiles to an allocation-free compare.

func tokIs(t []byte, s string) bool { return string(t) == s }
func isSemi(t []byte) bool          { return len(t) == 1 && t[0] == ';' }
func isPlus(t []byte) bool          { return len(t) == 1 && t[0] == '+' }
func isStar(t []byte) bool          { return len(t) == 1 && t[0] == '*' }
func isLParen(t []byte) bool        { return len(t) == 1 && t[0] == '(' }
func isRParen(t []byte) bool        { return len(t) == 1 && t[0] == ')' }

// isPunct reports whether t is one of the structural tokens an optional DEF
// orient must not be confused with.
func isPunct(t []byte) bool {
	return len(t) == 1 && (t[0] == ';' || t[0] == '+' || t[0] == '(' || t[0] == ')')
}

// interner deduplicates the bounded vocabulary fields (macro names, orients,
// USE/DIRECTION values, pin and layer names) so a million-component DEF
// allocates each repeated string once. Lookup with a []byte key does not
// allocate; only first-seen values are copied.
type interner struct{ m map[string]string }

func newInterner() *interner { return &interner{m: make(map[string]string, 32)} }

func (it *interner) str(b []byte) string {
	if s, ok := it.m[string(b)]; ok {
		return s
	}
	s := string(b)
	it.m[s] = s
	return s
}

// Numeric token helpers. Each has an allocation-free fast path for the plain
// signed integers DEF/LEF emit, and falls back to the exact strconv call the
// legacy parser used for anything else — acceptance and results are
// bit-identical to ParseFloat/Atoi on every input.

// atofTok mirrors `ParseFloat(tok, 64); err == nil` acceptance.
func atofTok(t []byte) (float64, bool) {
	if v, ok := fastFloat(t); ok {
		return v, true
	}
	v, err := strconv.ParseFloat(string(t), 64)
	return v, err == nil
}

// atoiOKTok mirrors `strconv.Atoi(tok); err == nil` acceptance.
func atoiOKTok(t []byte) (int, bool) {
	if v, ok := fastInt(t); ok {
		return v, true
	}
	v, err := strconv.Atoi(string(t))
	return v, err == nil
}

// fastFloat parses an optional sign plus up to 15 decimal digits — integers
// exactly representable in float64, so the value is bit-identical to
// ParseFloat's (including "-0"). Anything longer or non-integer falls back.
func fastFloat(t []byte) (float64, bool) {
	i := 0
	neg := false
	if len(t) > 0 && (t[0] == '+' || t[0] == '-') {
		neg = t[0] == '-'
		i = 1
	}
	if len(t)-i == 0 || len(t)-i > 15 {
		return 0, false
	}
	var v uint64
	for ; i < len(t); i++ {
		c := t[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	f := float64(v)
	if neg {
		f = -f
	}
	return f, true
}

// fastInt parses an optional sign plus up to 18 decimal digits (never
// overflows int64), matching Atoi's result on that subset.
func fastInt(t []byte) (int, bool) {
	i := 0
	neg := false
	if len(t) > 0 && (t[0] == '+' || t[0] == '-') {
		neg = t[0] == '-'
		i = 1
	}
	if len(t)-i == 0 || len(t)-i > 18 {
		return 0, false
	}
	var v int64
	for ; i < len(t); i++ {
		c := t[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return int(v), true
}
