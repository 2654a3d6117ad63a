package liberty

// The whole-string lexer is retained here as the reference the streaming
// lexer (scan.go) is differentially tested against: same tokens, same line
// numbers, same error text on every input.

import (
	"fmt"
	"strings"
)

// ParseASTLegacy parses with the whole-string lexer, the oracle of the
// ParseAST/ParseASTReader differential tests.
func ParseASTLegacy(src string) (*Group, error) {
	return parseTop(&parser{lx: &lexer{src: src, line: 1}})
}

type lexer struct {
	src  string
	pos  int
	line int
}

func (lx *lexer) next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			end := strings.Index(lx.src[lx.pos+2:], "*/")
			if end < 0 {
				return token{}, fmt.Errorf("liberty: line %d: unterminated comment", lx.line)
			}
			lx.line += strings.Count(lx.src[lx.pos:lx.pos+2+end+2], "\n")
			lx.pos += 2 + end + 2
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			nl := strings.IndexByte(lx.src[lx.pos:], '\n')
			if nl < 0 {
				lx.pos = len(lx.src)
			} else {
				lx.pos += nl
			}
		case c == '\\' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '\n':
			lx.line++
			lx.pos += 2 // line continuation
		case c == '\\' && lx.pos+2 < len(lx.src) && lx.src[lx.pos+1] == '\r' && lx.src[lx.pos+2] == '\n':
			lx.line++
			lx.pos += 3 // CRLF line continuation
		case c == '"':
			start := lx.pos + 1
			end := start
			for end < len(lx.src) && lx.src[end] != '"' {
				if lx.src[end] == '\n' {
					lx.line++
				}
				end++
			}
			if end >= len(lx.src) {
				return token{}, fmt.Errorf("liberty: line %d: unterminated string", lx.line)
			}
			lx.pos = end + 1
			return token{tokString, lx.src[start:end], lx.line}, nil
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
				start := lx.pos
				for lx.pos < len(lx.src) && isIdentByte(lx.src[lx.pos]) {
					lx.pos++
				}
				return token{tokIdent, lx.src[start:lx.pos], lx.line}, nil
			}
			return token{}, fmt.Errorf("liberty: line %d: unexpected character %q", lx.line, c)
		}
	}
	return token{tokEOF, "", lx.line}, nil
}
