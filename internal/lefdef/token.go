package lefdef

import (
	"bytes"
	"io"
	"unicode"
	"unicode/utf8"
)

// defaultScanBuf is the Scanner's fixed window size. Tokens, not files, must
// fit: the buffer only grows when a single token (or an unbroken comment)
// exceeds it, so peak tokenizer memory is O(buffer), independent of input
// length.
const defaultScanBuf = 64 * 1024

// Scanner streams DEF/LEF-lite tokens from an io.Reader through a fixed
// reusable buffer. It reproduces the legacy string tokenizer exactly: '#'
// erases to end of line, '(' / ')' / ';' are standalone tokens, and tokens
// are otherwise separated by Unicode whitespace (the streaming scanner
// decodes multi-byte space runes just like strings.Fields, and treats "\r\n"
// identically to "\n"). Tokens are yielded as sub-slices of the internal
// buffer with no per-token allocation; each is valid only until the next
// Next call.
type Scanner struct {
	r         io.Reader
	buf       []byte
	pos, end  int // live window is buf[pos:end]
	eof       bool
	err       error // first non-EOF read error (sticky)
	inComment bool  // a '#' comment continues past the window
	tokPfx    int   // verified token-byte prefix of a partial token
}

// NewScanner returns a Scanner reading from r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, defaultScanBuf)}
}

// Err returns the first non-EOF read error encountered, if any. A read error
// truncates the token stream; parsers surface Err in preference to their own
// truncation diagnostics.
func (s *Scanner) Err() error { return s.err }

// Byte classes driving Next's fast path. Class 0 is a plain ASCII token
// byte; anything else needs a closer look. A token is complete when its
// terminator is ASCII (space, punctuation or '#') — a high byte could be
// the start of a multi-byte space rune, which only the slow path decodes.
const (
	clSpace = 1 << iota // ASCII whitespace (the legacy tokenizer's set)
	clPunct             // '(' ')' ';' — standalone single-byte tokens
	clHash              // '#' — comment to end of line
	clHigh              // >= utf8.RuneSelf — possible multi-byte rune
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte{' ', '\t', '\n', '\r', '\v', '\f'} {
		t[c] = clSpace
	}
	t['('], t[')'], t[';'] = clPunct, clPunct, clPunct
	t['#'] = clHash
	for c := utf8.RuneSelf; c < 256; c++ {
		t[c] = clHigh
	}
	return
}()

// Next returns the next token, or (nil, false) at end of input. The returned
// slice aliases the Scanner's buffer and is invalidated by the next call.
func (s *Scanner) Next() ([]byte, bool) {
	// Fast path: a run of ASCII blanks, then a token of class-0 bytes whose
	// terminator sits inside the window. Anything else — comments, window
	// boundaries, high bytes — falls through to the general loop, which
	// re-derives the same state from s.pos.
	if !s.inComment && s.tokPfx == 0 {
		buf, end := s.buf, s.end
		i := s.pos
		for i < end && byteClass[buf[i]] == clSpace {
			i++
		}
		s.pos = i
		if i < end {
			switch byteClass[buf[i]] {
			case 0:
				j := i + 1
				for j < end && byteClass[buf[j]] == 0 {
					j++
				}
				if j < end && byteClass[buf[j]]&clHigh == 0 {
					s.pos = j
					return buf[i:j], true
				}
			case clPunct:
				s.pos = i + 1
				return buf[i : i+1], true
			}
		}
	}
	for {
		n, inc, more := skipBlanks(s.buf[s.pos:s.end], s.inComment, s.eof)
		s.pos += n
		s.inComment = inc
		if more {
			s.fill()
			continue
		}
		if s.pos == s.end {
			if s.eof {
				return nil, false
			}
			s.fill()
			continue
		}
		tn, complete := scanToken(s.buf[s.pos:s.end], s.eof, s.tokPfx)
		if !complete {
			s.tokPfx = tn // resume after the refill instead of rescanning
			s.fill()
			continue
		}
		s.tokPfx = 0
		tok := s.buf[s.pos : s.pos+tn]
		s.pos += tn
		return tok, true
	}
}

// fill shifts the live window to the front of the buffer and reads more
// data after it, growing the buffer only when a single token spans it
// entirely. It always either adds bytes or latches eof, so Next's loop
// terminates.
func (s *Scanner) fill() {
	if s.eof {
		return
	}
	if s.pos > 0 {
		copy(s.buf, s.buf[s.pos:s.end])
		s.end -= s.pos
		s.pos = 0
	}
	if s.end == len(s.buf) {
		nb := make([]byte, 2*len(s.buf))
		copy(nb, s.buf[:s.end])
		s.buf = nb
	}
	for {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			if err != io.EOF && s.err == nil {
				s.err = err
			}
			s.eof = true
			return
		}
		if n > 0 {
			return
		}
	}
}

// skipBlanks consumes the whitespace/comment prefix of data, stopping at the
// first token byte. It returns the bytes consumed, whether a '#' comment is
// still open at the point it stopped, and whether it needs more data to make
// a decision (never when atEOF). Comments terminate at '\n' only — a bare
// '\r' inside a comment stays commented, exactly like the line-splitting
// legacy tokenizer. Multi-byte space runes (NBSP, NEL) are decoded so the
// token boundaries match strings.Fields byte for byte.
func skipBlanks(data []byte, inComment, atEOF bool) (n int, stillComment, needMore bool) {
	i := 0
	for i < len(data) {
		if inComment {
			j := bytes.IndexByte(data[i:], '\n')
			if j < 0 {
				return len(data), true, !atEOF
			}
			i += j + 1
			inComment = false
			continue
		}
		c := data[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			i++
		case c == '#':
			inComment = true
			i++
		case c < utf8.RuneSelf:
			return i, false, false
		default:
			if !utf8.FullRune(data[i:]) && !atEOF {
				return i, false, true
			}
			r, size := utf8.DecodeRune(data[i:])
			if !unicode.IsSpace(r) {
				return i, false, false
			}
			i += size
		}
	}
	return i, inComment, !atEOF
}

// scanToken finds the end of the token starting at data[0] (which skipBlanks
// has established is a token byte). '(' / ')' / ';' are single-byte tokens;
// anything else runs until whitespace, punctuation or a '#' comment start.
// When complete is false the token may continue past the window (never when
// atEOF) and n is the verified prefix length — the caller passes it back as
// start after refilling so a token spanning many reads is scanned once, not
// quadratically.
func scanToken(data []byte, atEOF bool, start int) (n int, complete bool) {
	if start == 0 {
		if c := data[0]; c == '(' || c == ')' || c == ';' {
			return 1, true
		}
	}
	i := start
	for i < len(data) {
		c := data[i]
		switch {
		case c == '(' || c == ')' || c == ';' || c == '#':
			return i, true
		case c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f':
			return i, true
		case c < utf8.RuneSelf:
			i++
		default:
			if !utf8.FullRune(data[i:]) && !atEOF {
				return i, false
			}
			r, size := utf8.DecodeRune(data[i:])
			if unicode.IsSpace(r) {
				return i, true
			}
			i += size
		}
	}
	return i, atEOF
}
