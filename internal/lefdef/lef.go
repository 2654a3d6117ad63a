// Package lefdef reads and writes the subset of LEF and DEF that clock tree
// synthesis needs: macro footprints and pin capacitances from LEF; die area,
// placed components, IO pins and net connectivity from DEF. The writers emit
// the same subset, including the post-CTS DEF with inserted clock buffers and
// the decomposed clock subnets.
//
// Parsing and writing are streaming: the parsers read from an io.Reader
// through a fixed reusable token buffer (see Scanner) and the writers emit
// through a small append buffer, so peak I/O memory is O(buffer)+O(design)
// rather than O(file)+O(tokens). The whole-string entry points are thin
// wrappers over the streaming ones.
//
// Dimensions in the parsed structures are micrometers (converted from
// database units at the boundary); the raw DBU factor is preserved for
// round-tripping.
package lefdef

import (
	"cmp"
	"fmt"
	"io"
	"strings"
)

// LEF is a parsed technology/macro LEF file.
type LEF struct {
	Version string
	DBU     int // DATABASE MICRONS
	Macros  []*Macro
}

// Macro is a cell footprint.
type Macro struct {
	Name  string
	Class string
	W, H  float64 // µm
	Pins  []MacroPin
}

// MacroPin is one pin of a macro.
type MacroPin struct {
	Name      string
	Direction string // INPUT / OUTPUT / INOUT
	Use       string // CLOCK / SIGNAL / ...
	Cap       float64
}

// FindMacro returns the named macro, or nil.
func (l *LEF) FindMacro(name string) *Macro {
	for _, m := range l.Macros {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// ClockPin returns the macro's clock-use input pin, or nil.
func (m *Macro) ClockPin() *MacroPin {
	for i := range m.Pins {
		if m.Pins[i].Use == "CLOCK" && m.Pins[i].Direction == "INPUT" {
			return &m.Pins[i]
		}
	}
	return nil
}

// ParseLEF parses LEF-lite source.
func ParseLEF(src string) (*LEF, error) {
	return ParseLEFReader(strings.NewReader(src))
}

// ParseLEFReader parses LEF-lite from r, streaming through a fixed reusable
// buffer (see ParseDEFReader for the memory and error contract). Results and
// parse errors are identical to the legacy whole-string parser's (kept in
// legacy_test.go) on every input.
func ParseLEFReader(r io.Reader) (*LEF, error) {
	sc := NewScanner(r)
	cur := newTokCursor(sc)
	in := newInterner()
	lef := &LEF{DBU: 1000}
	err := lef.parseStream(cur, in)
	if rerr := sc.Err(); rerr != nil {
		return nil, fmt.Errorf("lef: read: %w", rerr)
	}
	if err != nil {
		return nil, err
	}
	return lef, nil
}

func (l *LEF) parseStream(cur *tokCursor, in *interner) error {
	for {
		t, ok := cur.peek(0)
		if !ok {
			return nil
		}
		switch {
		case tokIs(t, "VERSION"):
			if t1, ok1 := cur.peek(1); ok1 {
				l.Version = string(t1)
			}
			cur.skipStatement()
		case tokIs(t, "UNITS"):
			// UNITS DATABASE MICRONS n ; END UNITS
			for k := 0; ; k++ {
				tk, okk := cur.peek(k)
				if !okk || tokIs(tk, "END") {
					cur.advance(k + 2) // END UNITS
					break
				}
				if tokIs(tk, "MICRONS") {
					if t1, ok1 := cur.peek(k + 1); ok1 {
						if v, okv := atoiOKTok(t1); okv {
							l.DBU = v
						}
					}
				}
			}
		case tokIs(t, "MACRO"):
			m, err := parseMacroStream(cur, in)
			if err != nil {
				return err
			}
			l.Macros = append(l.Macros, m)
		case tokIs(t, "END"):
			// END LIBRARY or stray END
			cur.advance(2)
		default:
			cur.skipStatement()
		}
	}
}

// parseMacroStream parses one MACRO block; the cursor is positioned on the
// "MACRO" keyword. Diagnostics embed the absolute token ordinal, matching
// the legacy parser's slice index.
func parseMacroStream(cur *tokCursor, in *interner) (*Macro, error) {
	t1, ok := cur.peek(1)
	if !ok {
		return nil, fmt.Errorf("lef: malformed MACRO at token %d", cur.pos())
	}
	m := &Macro{Name: string(t1)}
	cur.advance(2)
	for {
		t, ok0 := cur.peek(0)
		if !ok0 {
			return nil, fmt.Errorf("lef: macro %s not terminated", m.Name)
		}
		switch {
		case tokIs(t, "CLASS"):
			if t1, ok = cur.peek(1); ok {
				m.Class = in.str(t1)
			}
			cur.skipStatement()
		case tokIs(t, "SIZE"):
			// SIZE w BY h ;
			if _, ok3 := cur.peek(3); ok3 {
				var errw, errh error
				m.W, errw = cur.num(1)
				m.H, errh = cur.num(3)
				if err := cmp.Or(errw, errh); err != nil {
					return nil, fmt.Errorf("lef: MACRO %s: %w", m.Name, err)
				}
			}
			cur.skipStatement()
		case tokIs(t, "PIN"):
			p, err := parseMacroPinStream(cur, in, m.Name)
			if err != nil {
				return nil, err
			}
			m.Pins = append(m.Pins, p)
		case tokIs(t, "END"):
			if t1, ok = cur.peek(1); ok && string(t1) == m.Name {
				cur.advance(2)
				return m, nil
			}
			cur.advance(1)
		default:
			cur.skipStatement()
		}
	}
}

func parseMacroPinStream(cur *tokCursor, in *interner, macro string) (MacroPin, error) {
	t1, ok := cur.peek(1)
	if !ok {
		return MacroPin{}, fmt.Errorf("lef: truncated PIN at token %d", cur.pos())
	}
	p := MacroPin{Name: string(t1)}
	cur.advance(2)
	for {
		t, ok0 := cur.peek(0)
		if !ok0 {
			return p, fmt.Errorf("lef: pin %s not terminated", p.Name)
		}
		switch {
		case tokIs(t, "DIRECTION"):
			if t1, ok = cur.peek(1); ok {
				p.Direction = in.str(t1)
			}
			cur.skipStatement()
		case tokIs(t, "USE"):
			if t1, ok = cur.peek(1); ok {
				p.Use = in.str(t1)
			}
			cur.skipStatement()
		case tokIs(t, "CAPACITANCE"):
			if _, ok = cur.peek(1); ok {
				var err error
				if p.Cap, err = cur.num(1); err != nil {
					return p, fmt.Errorf("lef: MACRO %s PIN %s: %w", macro, p.Name, err)
				}
			}
			cur.skipStatement()
		case tokIs(t, "END"):
			if t1, ok = cur.peek(1); ok && string(t1) == p.Name {
				cur.advance(2)
				return p, nil
			}
			cur.advance(1)
		default:
			cur.skipStatement()
		}
	}
}

// WriteLEF emits LEF-lite source for the structure. It is a convenience
// wrapper over WriteTo.
func (l *LEF) WriteLEF() string {
	var b strings.Builder
	l.WriteTo(&b) // strings.Builder writes cannot fail
	return b.String()
}
