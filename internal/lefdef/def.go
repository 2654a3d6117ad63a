package lefdef

import (
	"fmt"
	"io"
	"strings"

	"sllt/internal/geom"
)

// DEF is a parsed placement DEF file. Coordinates are micrometers.
type DEF struct {
	Version    string
	Design     string
	DBU        int
	Die        geom.Rect
	Components []Component
	Pins       []IOPin
	Nets       []Net
}

// Component is a placed instance.
type Component struct {
	Name   string
	Macro  string
	Loc    geom.Point
	Placed bool
	Orient string
}

// IOPin is a top-level design pin.
type IOPin struct {
	Name      string
	Net       string
	Direction string
	Use       string
	Loc       geom.Point
}

// Net is a logical net with its connections and, optionally, its routed
// wire geometry.
type Net struct {
	Name   string
	Use    string
	Conns  []Conn
	Routes []Route
}

// Route is one routed wire: an orthogonal polyline on a layer.
type Route struct {
	Layer  string
	Points []geom.Point
}

// RoutedLength returns the total routed wirelength of the net in µm.
func (n *Net) RoutedLength() float64 {
	var wl float64
	for _, r := range n.Routes {
		for i := 1; i < len(r.Points); i++ {
			wl += r.Points[i-1].Dist(r.Points[i])
		}
	}
	return wl
}

// Conn is one net connection. Comp == "PIN" denotes a top-level IO pin, in
// which case Pin holds the pin name.
type Conn struct {
	Comp string
	Pin  string
}

// FindComponent returns the named component, or nil.
func (d *DEF) FindComponent(name string) *Component {
	for i := range d.Components {
		if d.Components[i].Name == name {
			return &d.Components[i]
		}
	}
	return nil
}

// FindNet returns the named net, or nil.
func (d *DEF) FindNet(name string) *Net {
	for i := range d.Nets {
		if d.Nets[i].Name == name {
			return &d.Nets[i]
		}
	}
	return nil
}

// FindPin returns the named IO pin, or nil.
func (d *DEF) FindPin(name string) *IOPin {
	for i := range d.Pins {
		if d.Pins[i].Name == name {
			return &d.Pins[i]
		}
	}
	return nil
}

// sectionCap bounds prealloc hints taken from section headers so a hostile
// count ("COMPONENTS 99999999999 ;") cannot force a huge allocation up front.
const sectionCap = 1 << 20

// ParseDEF parses DEF-lite source.
func ParseDEF(src string) (*DEF, error) {
	return ParseDEFReader(strings.NewReader(src))
}

// ParseDEFReader parses DEF-lite from r, streaming through a fixed reusable
// buffer: peak parser memory is O(buffer)+O(result), independent of input
// length. Results and parse errors are identical to the legacy whole-string
// parser's (kept in legacy_test.go) on every input; a reader failure is
// surfaced as "def: read: ..." in preference to whatever truncation
// diagnostic the cut-short token stream would produce.
func ParseDEFReader(r io.Reader) (*DEF, error) {
	sc := NewScanner(r)
	cur := newTokCursor(sc)
	in := newInterner()
	def := &DEF{DBU: 1000}
	err := def.parseStream(cur, in)
	if rerr := sc.Err(); rerr != nil {
		return nil, fmt.Errorf("def: read: %w", rerr)
	}
	if err != nil {
		return nil, err
	}
	return def, nil
}

func (d *DEF) parseStream(cur *tokCursor, in *interner) error {
	for {
		t, ok := cur.peek(0)
		if !ok {
			break
		}
		switch {
		case tokIs(t, "VERSION"):
			if t1, ok1 := cur.peek(1); ok1 {
				d.Version = string(t1)
			}
			cur.skipStatement()
		case tokIs(t, "DESIGN"):
			if t1, ok1 := cur.peek(1); ok1 {
				d.Design = string(t1)
			}
			cur.skipStatement()
		case tokIs(t, "UNITS"):
			// UNITS DISTANCE MICRONS n ;
			for k := 0; ; k++ {
				tk, okk := cur.peek(k)
				if !okk {
					cur.advance(k)
					break
				}
				if isSemi(tk) {
					cur.advance(k + 1)
					break
				}
				if tokIs(tk, "MICRONS") {
					if t1, ok1 := cur.peek(k + 1); ok1 {
						if v, okv := atoiOKTok(t1); okv {
							d.DBU = v
						}
					}
				}
			}
		case tokIs(t, "DIEAREA"):
			// DIEAREA ( x1 y1 ) ( x2 y2 ) ;
			var nums [4]float64
			cnt := 0
			for k := 0; ; k++ {
				tk, okk := cur.peek(k)
				if !okk {
					cur.advance(k)
					break
				}
				if isSemi(tk) {
					cur.advance(k + 1)
					break
				}
				if v, okv := atofOKTok(tk); okv {
					if cnt < 4 {
						nums[cnt] = v
					}
					cnt++
				}
			}
			if cnt >= 4 {
				s := float64(d.DBU)
				d.Die = geom.Rect{XLo: nums[0] / s, YLo: nums[1] / s, XHi: nums[2] / s, YHi: nums[3] / s}
			}
		case tokIs(t, "COMPONENTS"):
			if err := d.parseComponentsStream(cur, in); err != nil {
				return err
			}
		case tokIs(t, "PINS"):
			if err := d.parsePinsStream(cur, in); err != nil {
				return err
			}
		case tokIs(t, "NETS"):
			if err := d.parseNetsStream(cur, in); err != nil {
				return err
			}
		case tokIs(t, "END"):
			cur.advance(2)
		default:
			cur.skipStatement()
		}
	}
	if d.Design == "" {
		return fmt.Errorf("def: missing DESIGN statement")
	}
	return nil
}

// headerCount reads the section count from "SECTION n ;" (peek(1)) as a
// prealloc hint and consumes the header statement. The hint is only applied
// at the first append so a zero-entry section still leaves the slice nil,
// exactly like the legacy parser.
func headerCount(cur *tokCursor) int {
	n := 0
	if t1, ok := cur.peek(1); ok {
		if v, okv := atoiOKTok(t1); okv && v > 0 {
			n = v
			if n > sectionCap {
				n = sectionCap
			}
		}
	}
	cur.skipStatement()
	return n
}

func (d *DEF) parseComponentsStream(cur *tokCursor, in *interner) error {
	capHint := headerCount(cur)
	scale := float64(d.DBU)
	var lastMacro, lastOrient string
	for {
		t, ok := cur.peek(0)
		if !ok {
			return fmt.Errorf("def: COMPONENTS not terminated")
		}
		if tokIs(t, "END") {
			cur.advance(2) // END COMPONENTS
			return nil
		}
		if !tokIs(t, "-") {
			return fmt.Errorf("def: expected '-' in COMPONENTS, got %q", string(t))
		}
		if _, ok2 := cur.peek(2); !ok2 {
			return fmt.Errorf("def: truncated COMPONENTS entry")
		}
		t1, _ := cur.peek(1)
		name := string(t1)
		t2, _ := cur.peek(2)
		// Components arrive grouped by cell type, so a last-value cache in
		// front of the interner turns most macro lookups into one compare.
		if !tokIs(t2, lastMacro) {
			lastMacro = in.str(t2)
		}
		c := Component{Name: name, Macro: lastMacro}
		cur.advance(3)
		for {
			t, ok = cur.peek(0)
			if !ok {
				return fmt.Errorf("def: COMPONENTS not terminated")
			}
			if isSemi(t) {
				cur.advance(1)
				break
			}
			if tokIs(t, "PLACED") || tokIs(t, "FIXED") {
				_, ok4 := cur.peek(4)
				t1, _ = cur.peek(1)
				if ok4 && isLParen(t1) {
					c.Placed = true
					tx, _ := cur.peek(2)
					x := atofTok(tx) / scale
					ty, _ := cur.peek(3)
					y := atofTok(ty) / scale
					c.Loc = geom.Pt(x, y)
					// The orient is optional; punctuation after ")" means it
					// was omitted (grabbing it would corrupt WriteDEF output).
					if t5, ok5 := cur.peek(5); ok5 {
						t4, _ := cur.peek(4)
						if isRParen(t4) && !isPunct(t5) {
							if !tokIs(t5, lastOrient) {
								lastOrient = in.str(t5)
							}
							c.Orient = lastOrient
						}
					}
					cur.advance(5)
					continue
				}
			}
			cur.advance(1)
		}
		if d.Components == nil && capHint > 0 {
			d.Components = make([]Component, 0, capHint)
		}
		d.Components = append(d.Components, c)
	}
}

func (d *DEF) parsePinsStream(cur *tokCursor, in *interner) error {
	capHint := headerCount(cur)
	scale := float64(d.DBU)
	for {
		t, ok := cur.peek(0)
		if !ok {
			return fmt.Errorf("def: PINS not terminated")
		}
		if tokIs(t, "END") {
			cur.advance(2)
			return nil
		}
		if !tokIs(t, "-") {
			return fmt.Errorf("def: expected '-' in PINS, got %q", string(t))
		}
		t1, ok1 := cur.peek(1)
		if !ok1 {
			return fmt.Errorf("def: truncated PINS entry")
		}
		p := IOPin{Name: string(t1)}
		cur.advance(2)
		for {
			t, ok = cur.peek(0)
			if !ok {
				return fmt.Errorf("def: PINS not terminated")
			}
			if isSemi(t) {
				cur.advance(1)
				break
			}
			switch {
			case tokIs(t, "NET"):
				if t1, ok1 = cur.peek(1); ok1 {
					p.Net = string(t1)
				}
				cur.advance(2)
			case tokIs(t, "DIRECTION"):
				if t1, ok1 = cur.peek(1); ok1 {
					p.Direction = in.str(t1)
				}
				cur.advance(2)
			case tokIs(t, "USE"):
				if t1, ok1 = cur.peek(1); ok1 {
					p.Use = in.str(t1)
				}
				cur.advance(2)
			case tokIs(t, "PLACED") || tokIs(t, "FIXED"):
				_, ok3 := cur.peek(3)
				t1, _ = cur.peek(1)
				if ok3 && isLParen(t1) {
					tx, _ := cur.peek(2)
					x := atofTok(tx) / scale
					ty, _ := cur.peek(3)
					y := atofTok(ty) / scale
					p.Loc = geom.Pt(x, y)
					cur.advance(5)
				} else {
					cur.advance(1)
				}
			default:
				cur.advance(1)
			}
		}
		if d.Pins == nil && capHint > 0 {
			d.Pins = make([]IOPin, 0, capHint)
		}
		d.Pins = append(d.Pins, p)
	}
}

func (d *DEF) parseNetsStream(cur *tokCursor, in *interner) error {
	capHint := headerCount(cur)
	scale := float64(d.DBU)
	var lastPin string
	for {
		t, ok := cur.peek(0)
		if !ok {
			return fmt.Errorf("def: NETS not terminated")
		}
		if tokIs(t, "END") {
			cur.advance(2)
			return nil
		}
		if !tokIs(t, "-") {
			return fmt.Errorf("def: expected '-' in NETS, got %q", string(t))
		}
		t1, ok1 := cur.peek(1)
		if !ok1 {
			return fmt.Errorf("def: truncated NETS entry")
		}
		n := Net{Name: string(t1)}
		cur.advance(2)
		for {
			t, ok = cur.peek(0)
			if !ok {
				return fmt.Errorf("def: NETS not terminated")
			}
			if isSemi(t) {
				cur.advance(1)
				break
			}
			switch {
			case isLParen(t):
				if _, ok2 := cur.peek(2); ok2 {
					t1, _ = cur.peek(1)
					comp := string(t1)
					t2, _ := cur.peek(2)
					// Pin names cluster (a clock net is all CK pins), so the
					// same last-value cache as the COMPONENTS macro field.
					if !tokIs(t2, lastPin) {
						lastPin = in.str(t2)
					}
					n.Conns = append(n.Conns, Conn{Comp: comp, Pin: lastPin})
					cur.advance(3)
				} else {
					cur.advance(1)
				}
			case isPlus(t):
				t1, ok1 = cur.peek(1)
				switch {
				case !ok1:
					cur.advance(1)
				case tokIs(t1, "USE"):
					if t2, ok2 := cur.peek(2); ok2 {
						n.Use = in.str(t2)
					}
					cur.advance(3)
				case tokIs(t1, "ROUTED"):
					cur.advance(2)
					n.Routes = parseRoutesStream(cur, in, scale)
				default:
					cur.advance(1)
				}
			default:
				cur.advance(1)
			}
		}
		if d.Nets == nil && capHint > 0 {
			d.Nets = make([]Net, 0, capHint)
		}
		d.Nets = append(d.Nets, n)
	}
}

// parseRoutesStream consumes routed wiring after "+ ROUTED": one polyline
// per layer section, sections separated by NEW. Coordinates may use the DEF
// "*" shorthand for "unchanged". Stops at the first token that does not
// belong to the route (';', '+', end of input), leaving it unconsumed.
func parseRoutesStream(cur *tokCursor, in *interner, scale float64) []Route {
	var routes []Route
	for {
		t, ok := cur.peek(0)
		if !ok || isSemi(t) || isPlus(t) {
			return routes
		}
		layer := in.str(t)
		cur.advance(1)
		r := Route{Layer: layer}
		var last geom.Point
		for {
			if _, ok2 := cur.peek(2); !ok2 {
				break
			}
			t0, _ := cur.peek(0)
			if !isLParen(t0) {
				break
			}
			// ( x y ) with * meaning "same as previous".
			tx, _ := cur.peek(1)
			x := last.X
			if !isStar(tx) {
				x = atofTok(tx) / scale
			}
			ty, _ := cur.peek(2)
			y := last.Y
			if !isStar(ty) {
				y = atofTok(ty) / scale
			}
			last = geom.Pt(x, y)
			r.Points = append(r.Points, last)
			cur.advance(4) // ( x y )
		}
		routes = append(routes, r)
		if t, ok = cur.peek(0); ok && tokIs(t, "NEW") {
			cur.advance(1)
			continue
		}
		return routes
	}
}

// WriteDEF emits DEF-lite source. It is a convenience wrapper over WriteTo.
func (d *DEF) WriteDEF() string {
	var b strings.Builder
	d.WriteTo(&b) // strings.Builder writes cannot fail
	return b.String()
}
