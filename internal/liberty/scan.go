package liberty

import (
	"fmt"
	"io"
)

// streamLexBuf is the streamLexer's fixed window size. Multi-byte constructs
// (strings, identifiers, comments) are consumed incrementally into a scratch
// buffer, so the window never needs to grow: lexer memory is O(buffer) plus
// the longest single token.
const streamLexBuf = 64 * 1024

// streamLexer produces the exact token stream of the string-based lexer
// while reading from an io.Reader through a fixed reusable window.
// Identifier and string token text is interned, so the bounded Liberty
// vocabulary (attribute and group names, repeated index lists) is allocated
// once per parse rather than once per occurrence.
type streamLexer struct {
	r        io.Reader
	buf      []byte
	pos, end int // live window is buf[pos:end]
	eof      bool
	err      error // first non-EOF read error (sticky)
	line     int
	scratch  []byte
	intern   map[string]string
}

func newStreamLexer(r io.Reader) *streamLexer {
	return &streamLexer{
		r:      r,
		buf:    make([]byte, streamLexBuf),
		line:   1,
		intern: make(map[string]string, 64),
	}
}

// ensure makes at least k bytes available at the window head, refilling from
// the reader as needed. It returns false once the input (or a failing
// reader) cannot supply them. k never exceeds the lookahead of a comment or
// continuation prefix, so the fixed window always has room.
func (lx *streamLexer) ensure(k int) bool {
	for lx.end-lx.pos < k {
		if lx.eof {
			return false
		}
		lx.fill()
	}
	return true
}

func (lx *streamLexer) fill() {
	if lx.pos > 0 {
		copy(lx.buf, lx.buf[lx.pos:lx.end])
		lx.end -= lx.pos
		lx.pos = 0
	}
	for {
		n, err := lx.r.Read(lx.buf[lx.end:])
		lx.end += n
		if err != nil {
			if err != io.EOF && lx.err == nil {
				lx.err = err
			}
			lx.eof = true
			return
		}
		if n > 0 {
			return
		}
	}
}

// str interns the scratch bytes; the []byte-keyed map lookup does not
// allocate, so repeated tokens cost nothing after their first appearance.
func (lx *streamLexer) str(b []byte) string {
	if s, ok := lx.intern[string(b)]; ok {
		return s
	}
	s := string(b)
	lx.intern[s] = s
	return s
}

func (lx *streamLexer) next() (token, error) {
	for lx.ensure(1) {
		c := lx.buf[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/':
			if lx.ensure(2) {
				switch lx.buf[lx.pos+1] {
				case '*':
					startLine := lx.line
					lx.pos += 2
					nl := 0
					prevStar := false
					for {
						if !lx.ensure(1) {
							return token{}, fmt.Errorf("liberty: line %d: unterminated comment", startLine)
						}
						b := lx.buf[lx.pos]
						lx.pos++
						if b == '\n' {
							nl++
						}
						if prevStar && b == '/' {
							break
						}
						prevStar = b == '*'
					}
					lx.line = startLine + nl
					continue
				case '/':
					// Stop at (not past) the newline; the main loop counts it.
					for lx.ensure(1) && lx.buf[lx.pos] != '\n' {
						lx.pos++
					}
					continue
				}
			}
			// A lone '/' is an identifier byte, never a comment.
			return lx.ident(), nil
		case c == '\\':
			if lx.ensure(2) && lx.buf[lx.pos+1] == '\n' {
				lx.line++
				lx.pos += 2 // line continuation
				continue
			}
			if lx.ensure(3) && lx.buf[lx.pos+1] == '\r' && lx.buf[lx.pos+2] == '\n' {
				lx.line++
				lx.pos += 3 // CRLF line continuation
				continue
			}
			return token{}, fmt.Errorf("liberty: line %d: unexpected character %q", lx.line, c)
		case c == '"':
			lx.pos++
			lx.scratch = lx.scratch[:0]
			for {
				if !lx.ensure(1) {
					return token{}, fmt.Errorf("liberty: line %d: unterminated string", lx.line)
				}
				b := lx.buf[lx.pos]
				lx.pos++
				if b == '"' {
					break
				}
				if b == '\n' {
					lx.line++
				}
				lx.scratch = append(lx.scratch, b)
			}
			return token{tokString, lx.str(lx.scratch), lx.line}, nil
		case c == '{':
			lx.pos++
			return token{tokLBrace, "{", lx.line}, nil
		case c == '}':
			lx.pos++
			return token{tokRBrace, "}", lx.line}, nil
		case c == '(':
			lx.pos++
			return token{tokLParen, "(", lx.line}, nil
		case c == ')':
			lx.pos++
			return token{tokRParen, ")", lx.line}, nil
		case c == ':':
			lx.pos++
			return token{tokColon, ":", lx.line}, nil
		case c == ';':
			lx.pos++
			return token{tokSemi, ";", lx.line}, nil
		case c == ',':
			lx.pos++
			return token{tokComma, ",", lx.line}, nil
		default:
			if isIdentByte(c) {
				return lx.ident(), nil
			}
			return token{}, fmt.Errorf("liberty: line %d: unexpected character %q", lx.line, c)
		}
	}
	return token{tokEOF, "", lx.line}, nil
}

func (lx *streamLexer) ident() token {
	lx.scratch = lx.scratch[:0]
	for lx.ensure(1) && isIdentByte(lx.buf[lx.pos]) {
		lx.scratch = append(lx.scratch, lx.buf[lx.pos])
		lx.pos++
	}
	return token{tokIdent, lx.str(lx.scratch), lx.line}
}

// ParseASTReader parses Liberty source from r into its top-level group,
// streaming through a fixed reusable buffer: peak lexer memory is
// O(buffer)+O(result), independent of input length. Results and parse errors
// are identical to the whole-string lexer's (kept in legacy_test.go) on every
// input; a reader failure is surfaced as "liberty: read: ..." in preference
// to the truncation diagnostics the cut-short token stream would produce.
func ParseASTReader(r io.Reader) (*Group, error) {
	lx := newStreamLexer(r)
	g, err := parseTop(&parser{lx: lx})
	if lx.err != nil {
		return nil, fmt.Errorf("liberty: read: %w", lx.err)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}
