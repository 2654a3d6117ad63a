package lefdef

// The legacy whole-string tokenizer, parsers and writers are retained here
// verbatim as the reference implementations the differential tests and the
// memory test compare the streaming paths against. They materialize the
// full token slice — one allocation per line and per punctuation rewrite —
// which is exactly the O(file)+O(tokens) footprint the streaming Scanner
// replaces; keeping them compiled and tested is what pins the two paths
// byte-identical.

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"sllt/internal/geom"
)

// ParseDEFLegacy parses DEF-lite source with the retained whole-string
// reference parser. ParseDEF (the streaming path) must agree with it on
// every input, value for value and error for error.
func ParseDEFLegacy(src string) (*DEF, error) {
	toks := tokenize(src)
	def := &DEF{DBU: 1000}
	i := 0
	for i < len(toks) {
		switch toks[i] {
		case "VERSION":
			if i+1 < len(toks) {
				def.Version = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "DESIGN":
			if i+1 < len(toks) {
				def.Design = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "UNITS":
			// UNITS DISTANCE MICRONS n ;
			for j := i; j < len(toks) && toks[j] != ";"; j++ {
				if toks[j] == "MICRONS" && j+1 < len(toks) {
					if v, err := strconv.Atoi(toks[j+1]); err == nil {
						def.DBU = v
					}
				}
			}
			i = skipStatement(toks, i)
		case "DIEAREA":
			// DIEAREA ( x1 y1 ) ( x2 y2 ) ;
			var nums []float64
			for j := i + 1; j < len(toks) && toks[j] != ";"; j++ {
				if toks[j] == "(" || toks[j] == ")" {
					continue
				}
				v, err := num(toks[j])
				if err != nil {
					return nil, fmt.Errorf("def: DIEAREA: %w", err)
				}
				nums = append(nums, v)
			}
			if len(nums) >= 4 {
				s := float64(def.DBU)
				def.Die = geom.Rect{XLo: nums[0] / s, YLo: nums[1] / s, XHi: nums[2] / s, YHi: nums[3] / s}
			}
			i = skipStatement(toks, i)
		case "COMPONENTS":
			next, err := def.parseComponents(toks, i)
			if err != nil {
				return nil, err
			}
			i = next
		case "PINS":
			next, err := def.parsePins(toks, i)
			if err != nil {
				return nil, err
			}
			i = next
		case "NETS":
			next, err := def.parseNets(toks, i)
			if err != nil {
				return nil, err
			}
			i = next
		case "END":
			i += 2
		default:
			i = skipStatement(toks, i)
		}
	}
	if def.Design == "" {
		return nil, fmt.Errorf("def: missing DESIGN statement")
	}
	return def, nil
}

func (d *DEF) parseComponents(toks []string, i int) (int, error) {
	i = skipStatement(toks, i) // consume "COMPONENTS n ;"
	scale := float64(d.DBU)
	for i < len(toks) {
		if toks[i] == "END" {
			return i + 2, nil // END COMPONENTS
		}
		if toks[i] != "-" {
			return i, fmt.Errorf("def: expected '-' in COMPONENTS, got %q", toks[i])
		}
		if i+2 >= len(toks) {
			return i, fmt.Errorf("def: truncated COMPONENTS entry")
		}
		c := Component{Name: toks[i+1], Macro: toks[i+2], Status: Unplaced}
		j := i + 3
		for j < len(toks) && toks[j] != ";" {
			if (toks[j] == "PLACED" || toks[j] == "FIXED") && j+4 < len(toks) && toks[j+1] == "(" {
				c.Status = Placed
				if toks[j] == "FIXED" {
					c.Status = Fixed
				}
				x, errx := num(toks[j+2])
				y, erry := num(toks[j+3])
				if err := cmp.Or(errx, erry); err != nil {
					return i, fmt.Errorf("def: COMPONENTS %s: %w", c.Name, err)
				}
				c.Loc = geom.Pt(x/scale, y/scale)
				// The orient is optional; punctuation after ")" means it
				// was omitted (grabbing it would corrupt WriteDEF output).
				if j+5 < len(toks) && toks[j+4] == ")" {
					if o := toks[j+5]; o != ";" && o != "+" && o != "(" && o != ")" {
						c.Orient = o
					}
				}
				j += 5
				continue
			}
			j++
		}
		d.Components = append(d.Components, c)
		i = j + 1
	}
	return i, fmt.Errorf("def: COMPONENTS not terminated")
}

func (d *DEF) parsePins(toks []string, i int) (int, error) {
	i = skipStatement(toks, i)
	scale := float64(d.DBU)
	for i < len(toks) {
		if toks[i] == "END" {
			return i + 2, nil
		}
		if toks[i] != "-" {
			return i, fmt.Errorf("def: expected '-' in PINS, got %q", toks[i])
		}
		if i+1 >= len(toks) {
			return i, fmt.Errorf("def: truncated PINS entry")
		}
		p := IOPin{Name: toks[i+1]}
		j := i + 2
		for j < len(toks) && toks[j] != ";" {
			switch toks[j] {
			case "NET":
				if j+1 < len(toks) {
					p.Net = toks[j+1]
				}
				j++
			case "DIRECTION":
				if j+1 < len(toks) {
					p.Direction = toks[j+1]
				}
				j++
			case "USE":
				if j+1 < len(toks) {
					p.Use = toks[j+1]
				}
				j++
			case "PLACED", "FIXED":
				if j+3 < len(toks) && toks[j+1] == "(" {
					x, errx := num(toks[j+2])
					y, erry := num(toks[j+3])
					if err := cmp.Or(errx, erry); err != nil {
						return i, fmt.Errorf("def: PINS %s: %w", p.Name, err)
					}
					p.Loc = geom.Pt(x/scale, y/scale)
					j += 4
				}
			}
			j++
		}
		d.Pins = append(d.Pins, p)
		i = j + 1
	}
	return i, fmt.Errorf("def: PINS not terminated")
}

func (d *DEF) parseNets(toks []string, i int) (int, error) {
	i = skipStatement(toks, i)
	for i < len(toks) {
		if toks[i] == "END" {
			return i + 2, nil
		}
		if toks[i] != "-" {
			return i, fmt.Errorf("def: expected '-' in NETS, got %q", toks[i])
		}
		if i+1 >= len(toks) {
			return i, fmt.Errorf("def: truncated NETS entry")
		}
		n := Net{Name: toks[i+1]}
		j := i + 2
		scale := float64(d.DBU)
		for j < len(toks) && toks[j] != ";" {
			switch toks[j] {
			case "(":
				if j+2 < len(toks) {
					n.Conns = append(n.Conns, Conn{Comp: toks[j+1], Pin: toks[j+2]})
					j += 2
				}
			case "+":
				if j+1 >= len(toks) {
					break
				}
				switch toks[j+1] {
				case "USE":
					if j+2 < len(toks) {
						n.Use = toks[j+2]
					}
					j += 2
				case "ROUTED":
					var next int
					var err error
					if n.Routes, next, err = parseRoutes(toks, j+2, scale); err != nil {
						return i, fmt.Errorf("def: NETS %s: %w", n.Name, err)
					}
					j = next - 1
				}
			}
			j++
		}
		d.Nets = append(d.Nets, n)
		i = j + 1
	}
	return i, fmt.Errorf("def: NETS not terminated")
}

// parseRoutes consumes routed wiring after "+ ROUTED": one polyline per
// layer section, sections separated by NEW. Coordinates may use the DEF "*"
// shorthand for "unchanged". Returns the routes and the index of the first
// unconsumed token.
func parseRoutes(toks []string, i int, scale float64) ([]Route, int, error) {
	var routes []Route
	for i < len(toks) {
		if toks[i] == ";" || toks[i] == "+" {
			return routes, i, nil
		}
		layer := toks[i]
		i++
		r := Route{Layer: layer}
		var last geom.Point
		for i+2 < len(toks) && toks[i] == "(" {
			// ( x y ) with * meaning "same as previous".
			xs, ys := toks[i+1], toks[i+2]
			x, errx := legacyCoord(xs, last.X, scale)
			y, erry := legacyCoord(ys, last.Y, scale)
			if err := cmp.Or(errx, erry); err != nil {
				return nil, i, err
			}
			last = geom.Pt(x, y)
			r.Points = append(r.Points, last)
			i += 4 // ( x y )
		}
		routes = append(routes, r)
		if i < len(toks) && toks[i] == "NEW" {
			i++
			continue
		}
		return routes, i, nil
	}
	return routes, i, nil
}

// ParseLEFLegacy parses LEF-lite source with the retained whole-string
// reference parser (see ParseDEFLegacy).
func ParseLEFLegacy(src string) (*LEF, error) {
	toks := tokenize(src)
	lef := &LEF{DBU: 1000}
	i := 0
	for i < len(toks) {
		switch toks[i] {
		case "VERSION":
			if i+1 < len(toks) {
				lef.Version = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "UNITS":
			// UNITS DATABASE MICRONS n ; END UNITS
			for i < len(toks) && toks[i] != "END" {
				if toks[i] == "MICRONS" && i+1 < len(toks) {
					if v, err := strconv.Atoi(toks[i+1]); err == nil {
						lef.DBU = v
					}
				}
				i++
			}
			i += 2 // END UNITS
		case "MACRO":
			m, next, err := parseMacro(toks, i)
			if err != nil {
				return nil, err
			}
			lef.Macros = append(lef.Macros, m)
			i = next
		case "END":
			// END LIBRARY or stray END
			i += 2
		default:
			i = skipStatement(toks, i)
		}
	}
	return lef, nil
}

func parseMacro(toks []string, i int) (*Macro, int, error) {
	if toks[i] != "MACRO" || i+1 >= len(toks) {
		return nil, i, fmt.Errorf("lef: malformed MACRO at token %d", i)
	}
	m := &Macro{Name: toks[i+1]}
	i += 2
	for i < len(toks) {
		switch toks[i] {
		case "CLASS":
			if i+1 < len(toks) {
				m.Class = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "SIZE":
			// SIZE w BY h ;
			if i+3 < len(toks) {
				var errw, errh error
				m.W, errw = num(toks[i+1])
				m.H, errh = num(toks[i+3])
				if err := cmp.Or(errw, errh); err != nil {
					return nil, i, fmt.Errorf("lef: MACRO %s: %w", m.Name, err)
				}
			}
			i = skipStatement(toks, i)
		case "PIN":
			p, next, err := parseMacroPin(toks, i, m.Name)
			if err != nil {
				return nil, i, err
			}
			m.Pins = append(m.Pins, p)
			i = next
		case "END":
			if i+1 < len(toks) && toks[i+1] == m.Name {
				return m, i + 2, nil
			}
			i++
		default:
			i = skipStatement(toks, i)
		}
	}
	return nil, i, fmt.Errorf("lef: macro %s not terminated", m.Name)
}

func parseMacroPin(toks []string, i int, macro string) (MacroPin, int, error) {
	if i+1 >= len(toks) {
		return MacroPin{}, i, fmt.Errorf("lef: truncated PIN at token %d", i)
	}
	p := MacroPin{Name: toks[i+1]}
	i += 2
	for i < len(toks) {
		switch toks[i] {
		case "DIRECTION":
			if i+1 < len(toks) {
				p.Direction = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "USE":
			if i+1 < len(toks) {
				p.Use = toks[i+1]
			}
			i = skipStatement(toks, i)
		case "CAPACITANCE":
			if i+1 < len(toks) {
				var err error
				if p.Cap, err = num(toks[i+1]); err != nil {
					return p, i, fmt.Errorf("lef: MACRO %s PIN %s: %w", macro, p.Name, err)
				}
			}
			i = skipStatement(toks, i)
		case "END":
			if i+1 < len(toks) && toks[i+1] == p.Name {
				return p, i + 2, nil
			}
			i++
		default:
			i = skipStatement(toks, i)
		}
	}
	return p, i, fmt.Errorf("lef: pin %s not terminated", p.Name)
}

// WriteDEFLegacy emits DEF-lite source by building the whole document in a
// strings.Builder — the retained reference WriteDEF/WriteTo must match byte
// for byte.
func (d *DEF) WriteDEFLegacy() string {
	var b strings.Builder
	v := d.Version
	if v == "" {
		v = "5.8"
	}
	scale := float64(d.DBU)
	fmt.Fprintf(&b, "VERSION %s ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n", v, d.Design, d.DBU)
	fmt.Fprintf(&b, "DIEAREA ( %d %d ) ( %d %d ) ;\n\n",
		int(d.Die.XLo*scale), int(d.Die.YLo*scale), int(d.Die.XHi*scale), int(d.Die.YHi*scale))
	fmt.Fprintf(&b, "COMPONENTS %d ;\n", len(d.Components))
	for _, c := range d.Components {
		orient := c.Orient
		if orient == "" {
			orient = "N"
		}
		switch c.Status {
		case Unplaced:
			fmt.Fprintf(&b, "  - %s %s ;\n", c.Name, c.Macro)
		case Fixed:
			fmt.Fprintf(&b, "  - %s %s + FIXED ( %d %d ) %s ;\n",
				c.Name, c.Macro, int(c.Loc.X*scale), int(c.Loc.Y*scale), orient)
		default:
			fmt.Fprintf(&b, "  - %s %s + PLACED ( %d %d ) %s ;\n",
				c.Name, c.Macro, int(c.Loc.X*scale), int(c.Loc.Y*scale), orient)
		}
	}
	b.WriteString("END COMPONENTS\n\n")
	fmt.Fprintf(&b, "PINS %d ;\n", len(d.Pins))
	for _, p := range d.Pins {
		fmt.Fprintf(&b, "  - %s + NET %s", p.Name, p.Net)
		if p.Direction != "" {
			fmt.Fprintf(&b, " + DIRECTION %s", p.Direction)
		}
		if p.Use != "" {
			fmt.Fprintf(&b, " + USE %s", p.Use)
		}
		fmt.Fprintf(&b, " + PLACED ( %d %d ) N ;\n", int(p.Loc.X*scale), int(p.Loc.Y*scale))
	}
	b.WriteString("END PINS\n\n")
	fmt.Fprintf(&b, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(&b, "  - %s", n.Name)
		for k, c := range n.Conns {
			if k%4 == 0 {
				b.WriteString("\n   ")
			}
			fmt.Fprintf(&b, " ( %s %s )", c.Comp, c.Pin)
		}
		if n.Use != "" {
			fmt.Fprintf(&b, "\n    + USE %s", n.Use)
		}
		for ri, r := range n.Routes {
			if ri == 0 {
				fmt.Fprintf(&b, "\n    + ROUTED %s", r.Layer)
			} else {
				fmt.Fprintf(&b, "\n      NEW %s", r.Layer)
			}
			for _, p := range r.Points {
				fmt.Fprintf(&b, " ( %d %d )", int(p.X*scale), int(p.Y*scale))
			}
		}
		b.WriteString(" ;\n")
	}
	b.WriteString("END NETS\n\nEND DESIGN\n")
	return b.String()
}

// writeLEFLegacy is the retained strings.Builder LEF writer (see
// WriteDEFLegacy).
func (l *LEF) writeLEFLegacy() string {
	var b strings.Builder
	v := l.Version
	if v == "" {
		v = "5.8"
	}
	fmt.Fprintf(&b, "VERSION %s ;\nUNITS\n  DATABASE MICRONS %d ;\nEND UNITS\n\n", v, l.DBU)
	for _, m := range l.Macros {
		fmt.Fprintf(&b, "MACRO %s\n", m.Name)
		if m.Class != "" {
			fmt.Fprintf(&b, "  CLASS %s ;\n", m.Class)
		}
		fmt.Fprintf(&b, "  SIZE %.4f BY %.4f ;\n", m.W, m.H)
		for _, p := range m.Pins {
			fmt.Fprintf(&b, "  PIN %s\n", p.Name)
			if p.Direction != "" {
				fmt.Fprintf(&b, "    DIRECTION %s ;\n", p.Direction)
			}
			if p.Use != "" {
				fmt.Fprintf(&b, "    USE %s ;\n", p.Use)
			}
			if p.Cap != 0 {
				fmt.Fprintf(&b, "    CAPACITANCE %.4f ;\n", p.Cap)
			}
			fmt.Fprintf(&b, "  END %s\n", p.Name)
		}
		fmt.Fprintf(&b, "END %s\n\n", m.Name)
	}
	b.WriteString("END LIBRARY\n")
	return b.String()
}

// tokenize splits source into tokens, treating parentheses and semicolons
// as standalone tokens and stripping # comments.
func tokenize(src string) []string {
	var toks []string
	for _, line := range strings.Split(src, "\n") {
		if idx := strings.IndexByte(line, '#'); idx >= 0 {
			line = line[:idx]
		}
		line = strings.ReplaceAll(line, "(", " ( ")
		line = strings.ReplaceAll(line, ")", " ) ")
		line = strings.ReplaceAll(line, ";", " ; ")
		toks = append(toks, strings.Fields(line)...)
	}
	return toks
}

// skipStatement advances past the next ';' (or to end of input).
func skipStatement(toks []string, i int) int {
	for i < len(toks) && toks[i] != ";" {
		i++
	}
	return i + 1
}

// legacyCoord parses a route coordinate in µm; "*" keeps prev.
func legacyCoord(s string, prev, scale float64) (float64, error) {
	if s == "*" {
		return prev, nil
	}
	v, err := num(s)
	return v / scale, err
}

// num parses a number token; a token strconv.ParseFloat rejects is an
// error naming it, the streaming parsers' rule.
func num(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
