// Package liberty parses a practical subset of the Liberty (.lib) timing
// library format and extracts the linear clock-buffer model the paper's
// buffering optimization consumes (Equation 6):
//
//	D_buf = ωs·Slew_in + ωc·Cap_load + ωi
//
// The parser builds a generic group/attribute AST for the Liberty syntax
// (groups `name (args) { ... }`, simple attributes `name : value ;`, complex
// attributes `name (v1, v2, ...) ;`), then the extraction layer walks
// cell/pin/timing groups, reads NLDM lookup tables and least-squares fits
// the linear coefficients. A synthetic 28 nm-class library is provided for
// experiments — no foundry PDK is available, so its values are calibrated to
// land full-flow results in the ranges the paper reports.
package liberty

import (
	"fmt"
	"strings"
	"unicode"
)

// Group is a Liberty group statement: name (args) { statements }.
type Group struct {
	Name   string
	Args   []string
	Attrs  []Attr
	Groups []*Group
}

// Attr is a simple (`name : value ;`) or complex (`name (v1, v2) ;`)
// attribute. Complex attributes have Values; simple ones a single Value.
type Attr struct {
	Name   string
	Values []string
}

// Value returns the first value of the attribute (empty if none).
func (a Attr) Value() string {
	if len(a.Values) == 0 {
		return ""
	}
	return a.Values[0]
}

// Attr returns the first attribute of the group with the given name.
func (g *Group) Attr(name string) (Attr, bool) {
	for _, a := range g.Attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// SubGroups returns all direct child groups with the given name.
func (g *Group) SubGroups(name string) []*Group {
	var out []*Group
	for _, s := range g.Groups {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

type token struct {
	kind tokenKind
	text string
	line int
}

type tokenKind int

const (
	tokIdent tokenKind = iota
	tokString
	tokLBrace
	tokRBrace
	tokLParen
	tokRParen
	tokColon
	tokSemi
	tokComma
	tokEOF
)

func isIdentByte(c byte) bool {
	return c == '_' || c == '.' || c == '-' || c == '+' || c == '*' || c == '!' ||
		c == '[' || c == ']' || c == '/' ||
		unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// tokenSource is the lexer interface the parser consumes: the reader-based
// streamLexer implements it, and so does the whole-string lexer the
// differential tests hold it byte-identical to (legacy_test.go).
type tokenSource interface {
	next() (token, error)
}

type parser struct {
	lx  tokenSource
	tok token
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// ParseAST parses Liberty source into its top-level group (usually
// `library (...) { ... }`).
func ParseAST(src string) (*Group, error) {
	return ParseASTReader(strings.NewReader(src))
}

func parseTop(p *parser) (*Group, error) {
	if err := p.advance(); err != nil {
		return nil, err
	}
	g, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	grp, ok := g.(*Group)
	if !ok {
		return nil, fmt.Errorf("liberty: top-level statement is not a group")
	}
	return grp, nil
}

// parseStatement parses one statement starting at p.tok: either a group, a
// complex attribute, or a simple attribute. Returns *Group or Attr.
func (p *parser) parseStatement() (interface{}, error) {
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("liberty: line %d: expected identifier, got %q", p.tok.line, p.tok.text)
	}
	name := p.tok.text
	if err := p.advance(); err != nil {
		return nil, err
	}
	switch p.tok.kind {
	case tokColon:
		// Simple attribute: name : value ;
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent && p.tok.kind != tokString {
			return nil, fmt.Errorf("liberty: line %d: expected attribute value", p.tok.line)
		}
		val := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokSemi {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		return Attr{Name: name, Values: []string{val}}, nil
	case tokLParen:
		args, err := p.parseArgs()
		if err != nil {
			return nil, err
		}
		switch p.tok.kind {
		case tokLBrace:
			g := &Group{Name: name, Args: args}
			if err := p.advance(); err != nil {
				return nil, err
			}
			for p.tok.kind != tokRBrace {
				if p.tok.kind == tokEOF {
					return nil, fmt.Errorf("liberty: unexpected EOF in group %q", name)
				}
				st, err := p.parseStatement()
				if err != nil {
					return nil, err
				}
				switch v := st.(type) {
				case *Group:
					g.Groups = append(g.Groups, v)
				case Attr:
					g.Attrs = append(g.Attrs, v)
				}
			}
			if err := p.advance(); err != nil { // consume }
				return nil, err
			}
			if p.tok.kind == tokSemi {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			return g, nil
		case tokSemi:
			if err := p.advance(); err != nil {
				return nil, err
			}
			return Attr{Name: name, Values: args}, nil
		default:
			// Complex attribute without trailing semicolon.
			return Attr{Name: name, Values: args}, nil
		}
	default:
		return nil, fmt.Errorf("liberty: line %d: expected ':' or '(' after %q", p.tok.line, name)
	}
}

// parseArgs consumes a parenthesized argument list; p.tok is '(' on entry
// and the token after ')' on exit.
func (p *parser) parseArgs() ([]string, error) {
	var args []string
	for {
		if err := p.advance(); err != nil {
			return nil, err
		}
		switch p.tok.kind {
		case tokRParen:
			if err := p.advance(); err != nil {
				return nil, err
			}
			return args, nil
		case tokIdent, tokString:
			args = append(args, p.tok.text)
		case tokComma:
			// separator
		case tokEOF:
			return nil, fmt.Errorf("liberty: unexpected EOF in argument list")
		default:
			return nil, fmt.Errorf("liberty: line %d: unexpected %q in arguments", p.tok.line, p.tok.text)
		}
	}
}
