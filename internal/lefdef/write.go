package lefdef

import (
	"io"
	"strconv"
)

// emitFlushAt is the emitter's flush threshold: output is handed to the
// underlying writer in chunks of roughly this size, so writer memory is
// O(buffer) regardless of document size.
const emitFlushAt = 32 * 1024

// emitter buffers formatted output and flushes it to w in bounded chunks.
// The first write error is sticky; subsequent output is formatted into the
// (repeatedly reset) buffer but never written.
type emitter struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

func newEmitter(w io.Writer) *emitter {
	return &emitter{w: w, buf: make([]byte, 0, emitFlushAt+512)}
}

func (e *emitter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		e.n += int64(n)
		if err != nil {
			e.err = err
		}
	}
	e.buf = e.buf[:0]
}

// line marks a statement boundary: flush once the buffer has a chunk's worth.
func (e *emitter) line() {
	if len(e.buf) >= emitFlushAt {
		e.flush()
	}
}

func (e *emitter) str(s string)        { e.buf = append(e.buf, s...) }
func (e *emitter) intv(v int)          { e.buf = appendInt(e.buf, v) }
func (e *emitter) scaled(v, s float64) { e.buf = appendScaled(e.buf, v, s) }
func (e *emitter) fixed4(v float64)    { e.buf = appendFixed4(e.buf, v) }

// appendInt formats v exactly like fmt's %d.
func appendInt(dst []byte, v int) []byte {
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendScaled formats int(v*scale) exactly like the legacy writers'
// fmt.Fprintf("%d", int(v*scale)) — same float-to-int truncation, same
// decimal rendering.
func appendScaled(dst []byte, v, scale float64) []byte {
	return strconv.AppendInt(dst, int64(int(v*scale)), 10)
}

// appendFixed4 formats v exactly like fmt's %.4f.
func appendFixed4(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'f', 4, 64)
}

// WriteTo streams DEF-lite source to w, byte-identical to the legacy
// whole-string writer the tests keep, without materializing the document:
// formatting goes through an append buffer flushed in bounded chunks. A
// component is written with its placement status, and an unplaced one
// with none. It implements io.WriterTo.
func (d *DEF) WriteTo(w io.Writer) (int64, error) {
	e := newEmitter(w)
	v := d.Version
	if v == "" {
		v = "5.8"
	}
	scale := float64(d.DBU)
	e.str("VERSION ")
	e.str(v)
	e.str(" ;\nDESIGN ")
	e.str(d.Design)
	e.str(" ;\nUNITS DISTANCE MICRONS ")
	e.intv(d.DBU)
	e.str(" ;\nDIEAREA ( ")
	e.scaled(d.Die.XLo, scale)
	e.str(" ")
	e.scaled(d.Die.YLo, scale)
	e.str(" ) ( ")
	e.scaled(d.Die.XHi, scale)
	e.str(" ")
	e.scaled(d.Die.YHi, scale)
	e.str(" ) ;\n\nCOMPONENTS ")
	e.intv(len(d.Components))
	e.str(" ;\n")
	for i := range d.Components {
		c := &d.Components[i]
		orient := c.Orient
		if orient == "" {
			orient = "N"
		}
		e.str("  - ")
		e.str(c.Name)
		e.str(" ")
		e.str(c.Macro)
		if c.Status != Unplaced {
			if c.Status == Fixed {
				e.str(" + FIXED ( ")
			} else {
				e.str(" + PLACED ( ")
			}
			e.scaled(c.Loc.X, scale)
			e.str(" ")
			e.scaled(c.Loc.Y, scale)
			e.str(" ) ")
			e.str(orient)
		}
		e.str(" ;\n")
		e.line()
	}
	e.str("END COMPONENTS\n\nPINS ")
	e.intv(len(d.Pins))
	e.str(" ;\n")
	for i := range d.Pins {
		p := &d.Pins[i]
		e.str("  - ")
		e.str(p.Name)
		e.str(" + NET ")
		e.str(p.Net)
		if p.Direction != "" {
			e.str(" + DIRECTION ")
			e.str(p.Direction)
		}
		if p.Use != "" {
			e.str(" + USE ")
			e.str(p.Use)
		}
		e.str(" + PLACED ( ")
		e.scaled(p.Loc.X, scale)
		e.str(" ")
		e.scaled(p.Loc.Y, scale)
		e.str(" ) N ;\n")
		e.line()
	}
	e.str("END PINS\n\nNETS ")
	e.intv(len(d.Nets))
	e.str(" ;\n")
	for i := range d.Nets {
		n := &d.Nets[i]
		e.str("  - ")
		e.str(n.Name)
		for k := range n.Conns {
			if k%4 == 0 {
				e.str("\n   ")
			}
			e.str(" ( ")
			e.str(n.Conns[k].Comp)
			e.str(" ")
			e.str(n.Conns[k].Pin)
			e.str(" )")
			e.line()
		}
		if n.Use != "" {
			e.str("\n    + USE ")
			e.str(n.Use)
		}
		for ri := range n.Routes {
			r := &n.Routes[ri]
			if ri == 0 {
				e.str("\n    + ROUTED ")
			} else {
				e.str("\n      NEW ")
			}
			e.str(r.Layer)
			for _, p := range r.Points {
				e.str(" ( ")
				e.scaled(p.X, scale)
				e.str(" ")
				e.scaled(p.Y, scale)
				e.str(" )")
			}
			e.line()
		}
		e.str(" ;\n")
		e.line()
	}
	e.str("END NETS\n\nEND DESIGN\n")
	e.flush()
	return e.n, e.err
}

// WriteTo streams LEF-lite source to w, byte-identical to the legacy string
// writer. It implements io.WriterTo.
func (l *LEF) WriteTo(w io.Writer) (int64, error) {
	e := newEmitter(w)
	v := l.Version
	if v == "" {
		v = "5.8"
	}
	e.str("VERSION ")
	e.str(v)
	e.str(" ;\nUNITS\n  DATABASE MICRONS ")
	e.intv(l.DBU)
	e.str(" ;\nEND UNITS\n\n")
	for _, m := range l.Macros {
		e.str("MACRO ")
		e.str(m.Name)
		e.str("\n")
		if m.Class != "" {
			e.str("  CLASS ")
			e.str(m.Class)
			e.str(" ;\n")
		}
		e.str("  SIZE ")
		e.fixed4(m.W)
		e.str(" BY ")
		e.fixed4(m.H)
		e.str(" ;\n")
		for i := range m.Pins {
			p := &m.Pins[i]
			e.str("  PIN ")
			e.str(p.Name)
			e.str("\n")
			if p.Direction != "" {
				e.str("    DIRECTION ")
				e.str(p.Direction)
				e.str(" ;\n")
			}
			if p.Use != "" {
				e.str("    USE ")
				e.str(p.Use)
				e.str(" ;\n")
			}
			if p.Cap != 0 {
				e.str("    CAPACITANCE ")
				e.fixed4(p.Cap)
				e.str(" ;\n")
			}
			e.str("  END ")
			e.str(p.Name)
			e.str("\n")
			e.line()
		}
		e.str("END ")
		e.str(m.Name)
		e.str("\n\n")
		e.line()
	}
	e.str("END LIBRARY\n")
	e.flush()
	return e.n, e.err
}
