package liberty

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// BufferCell is the linear clock-buffer model of one library cell:
// D = WS·slew_in + WC·C_load + WI (all times ps, capacitances fF), plus the
// output slew model SlewOut = SC·C_load + SI.
type BufferCell struct {
	Name     string
	InputCap float64 // unit: fF
	MaxCap   float64 // unit: fF // output max_capacitance
	Area     float64 // unit: um^2

	WS float64 // unit: 1 // slew coefficient (dimensionless)
	WC float64 // unit: ps/fF // load coefficient
	WI float64 // unit: ps // intrinsic delay

	SC float64 // unit: ps/fF // output slew load coefficient
	SI float64 // unit: ps // output slew intrinsic
}

// Delay evaluates Equation (6) for the cell.
//
// unit: slewIn ps, capLoad fF -> ps
func (c *BufferCell) Delay(slewIn, capLoad float64) float64 {
	return c.WS*slewIn + c.WC*capLoad + c.WI
}

// OutSlew returns the output slew driving capLoad.
//
// unit: capLoad fF -> ps
func (c *BufferCell) OutSlew(capLoad float64) float64 {
	return c.SC*capLoad + c.SI
}

// Library is a set of clock buffer cells, sorted by drive strength
// (ascending input capacitance).
type Library struct {
	Name  string
	Cells []*BufferCell
}

// Cell returns the named cell, or nil.
func (l *Library) Cell(name string) *BufferCell {
	for _, c := range l.Cells {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Smallest returns the weakest buffer (first after sorting).
func (l *Library) Smallest() *BufferCell { return l.Cells[0] }

// Strongest returns the strongest buffer.
func (l *Library) Strongest() *BufferCell { return l.Cells[len(l.Cells)-1] }

// MinWC returns min over cells of the load coefficient — the first term of
// the paper's Equation (7) insertion-delay lower bound.
//
// unit: -> ps/fF
func (l *Library) MinWC() float64 {
	m := l.Cells[0].WC
	for _, c := range l.Cells[1:] {
		if c.WC < m {
			m = c.WC
		}
	}
	return m
}

// MinWI returns min over cells of the intrinsic delay — the second term of
// Equation (7).
//
// unit: -> ps
func (l *Library) MinWI() float64 {
	m := l.Cells[0].WI
	for _, c := range l.Cells[1:] {
		if c.WI < m {
			m = c.WI
		}
	}
	return m
}

// InsertionDelayLowerBound evaluates the paper's Equation (7): the most
// conservative buffer delay estimate for a node with the given downstream
// load, used to pre-annotate nodes before their buffers are actually chosen.
//
// unit: capLoad fF -> ps
func (l *Library) InsertionDelayLowerBound(capLoad float64) float64 {
	return l.MinWC()*capLoad + l.MinWI()
}

// Parse reads Liberty source and extracts every buffer-like cell: a cell
// with one input pin and one output pin whose timing arc has NLDM delay
// tables (or scalar values). LUTs are least-squares fitted to the linear
// model. Cells are returned sorted by input capacitance.
func Parse(src string) (*Library, error) {
	root, err := ParseAST(src)
	if err != nil {
		return nil, err
	}
	return buildLibrary(root)
}

// ParseReader is Parse over an io.Reader: the source streams through the
// fixed-buffer lexer (see ParseASTReader) instead of being held in memory.
func ParseReader(r io.Reader) (*Library, error) {
	root, err := ParseASTReader(r)
	if err != nil {
		return nil, err
	}
	return buildLibrary(root)
}

func buildLibrary(root *Group) (*Library, error) {
	if root.Name != "library" {
		return nil, fmt.Errorf("liberty: top-level group is %q, want library", root.Name)
	}
	lib := &Library{Name: firstArg(root.Args)}
	for _, cg := range root.SubGroups("cell") {
		cell, err := extractCell(cg)
		if err != nil {
			return nil, fmt.Errorf("liberty: cell %s: %w", firstArg(cg.Args), err)
		}
		if cell != nil {
			lib.Cells = append(lib.Cells, cell)
		}
	}
	if len(lib.Cells) == 0 {
		return nil, fmt.Errorf("liberty: no buffer cells found")
	}
	sort.Slice(lib.Cells, func(i, j int) bool { return lib.Cells[i].InputCap < lib.Cells[j].InputCap })
	return lib, nil
}

func firstArg(args []string) string {
	if len(args) == 0 {
		return ""
	}
	return args[0]
}

// nominalInSlew is the input slew at which the fitted output-slew
// sensitivity is folded into the intrinsic term.
const nominalInSlew = 20 // unit: ps

// extractCell converts one cell group into a BufferCell; returns (nil, nil)
// for cells that are not two-pin buffers.
func extractCell(cg *Group) (*BufferCell, error) {
	cell := &BufferCell{Name: firstArg(cg.Args)}
	if a, ok := cg.Attr("area"); ok {
		cell.Area = atofDefault(a.Value(), 0)
	}
	var inPin, outPin *Group
	for _, pg := range cg.SubGroups("pin") {
		dir, _ := pg.Attr("direction")
		switch dir.Value() {
		case "input":
			inPin = pg
		case "output":
			outPin = pg
		}
	}
	if inPin == nil || outPin == nil {
		return nil, nil // not a buffer
	}
	if a, ok := inPin.Attr("capacitance"); ok {
		cell.InputCap = atofDefault(a.Value(), 0)
	}
	if a, ok := outPin.Attr("max_capacitance"); ok {
		cell.MaxCap = atofDefault(a.Value(), 0)
	}
	timings := outPin.SubGroups("timing")
	if len(timings) == 0 {
		return nil, fmt.Errorf("no timing group on output pin")
	}
	tg := timings[0]
	dws, dwc, dwi, err := fitLUT(tg, "cell_rise", "cell_fall")
	if err != nil {
		return nil, err
	}
	cell.WS, cell.WC, cell.WI = dws, dwc, dwi
	if sws, swc, swi, err := fitLUT(tg, "rise_transition", "fall_transition"); err == nil {
		// Output slew barely depends on input slew to first order; fold the
		// fitted slew sensitivity into the intrinsic at the nominal input
		// slew.
		cell.SC = swc
		cell.SI = swi + sws*nominalInSlew
	} else {
		cell.SC = dwc * 1.2
		cell.SI = dwi
	}
	if cell.MaxCap == 0 {
		cell.MaxCap = cell.InputCap * 40
	}
	return cell, nil
}

// fitLUT least-squares fits delay = ws·slew + wc·cap + wi over the first
// available of the named tables (averaging rise/fall when both exist). The
// same shape fits transition tables: the fitted value is then a slew, which
// has the same dimensions (ps output over ps and fF inputs).
//
// unit: -> 1, ps/fF, ps, _
func fitLUT(tg *Group, names ...string) (ws, wc, wi float64, err error) {
	var fits [][3]float64
	for _, name := range names {
		for _, lut := range tg.SubGroups(name) {
			f, ferr := fitOneLUT(lut)
			if ferr != nil {
				return 0, 0, 0, ferr
			}
			fits = append(fits, f)
		}
	}
	if len(fits) == 0 {
		return 0, 0, 0, fmt.Errorf("no %v tables", names)
	}
	for _, f := range fits {
		ws += f[0]
		wc += f[1]
		wi += f[2]
	}
	n := float64(len(fits))
	return ws / n, wc / n, wi / n, nil
}

// fitOneLUT fits a single NLDM table group: index_1 = input slews (ps),
// index_2 = load caps (fF), values = delay matrix. Scalar tables yield
// ws = wc = 0.
func fitOneLUT(lut *Group) ([3]float64, error) {
	idx1 := numsFromAttr(lut, "index_1")
	idx2 := numsFromAttr(lut, "index_2")
	vals, ok := lut.Attr("values")
	if !ok {
		return [3]float64{}, fmt.Errorf("LUT %s has no values", lut.Name)
	}
	var rows [][]float64
	for _, rv := range vals.Values {
		rows = append(rows, parseNums(rv))
	}
	if len(rows) == 0 || len(rows[0]) == 0 {
		return [3]float64{}, fmt.Errorf("LUT %s has empty values", lut.Name)
	}
	if len(idx1) == 0 && len(idx2) == 0 {
		// scalar
		return [3]float64{0, 0, rows[0][0]}, nil
	}
	// Assemble samples (slew, cap, delay).
	type sample struct{ s, c, d float64 }
	var samples []sample
	for i, row := range rows {
		s := 0.0
		if i < len(idx1) {
			s = idx1[i]
		}
		for j, d := range row {
			c := 0.0
			if j < len(idx2) {
				c = idx2[j]
			}
			samples = append(samples, sample{s, c, d})
		}
	}
	// Least squares for d = ws·s + wc·c + wi via normal equations.
	var n, ss, sc2, s1, c1, sc, sd, cd, d1 float64
	for _, smp := range samples {
		n++
		ss += smp.s * smp.s
		sc2 += smp.c * smp.c
		s1 += smp.s
		c1 += smp.c
		sc += smp.s * smp.c
		sd += smp.s * smp.d
		cd += smp.c * smp.d
		d1 += smp.d
	}
	// Solve the 3x3 system [ss sc s1; sc sc2 c1; s1 c1 n] x = [sd cd d1].
	m := [3][4]float64{
		{ss, sc, s1, sd},
		{sc, sc2, c1, cd},
		{s1, c1, n, d1},
	}
	x, ok2 := solve3(m)
	if !ok2 {
		// Degenerate (e.g. single row or column): fall back to mean delay.
		return [3]float64{0, 0, d1 / n}, nil
	}
	return x, nil
}

// solve3 solves a 3x3 augmented system by Gaussian elimination with partial
// pivoting. Returns false if singular.
func solve3(m [3][4]float64) ([3]float64, bool) {
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if abs(m[r][col]) > abs(m[p][col]) {
				p = r
			}
		}
		if abs(m[p][col]) < 1e-12 {
			return [3]float64{}, false
		}
		m[col], m[p] = m[p], m[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c < 4; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	return [3]float64{m[0][3] / m[0][0], m[1][3] / m[1][1], m[2][3] / m[2][2]}, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func numsFromAttr(g *Group, name string) []float64 {
	a, ok := g.Attr(name)
	if !ok {
		return nil
	}
	var out []float64
	for _, v := range a.Values {
		out = append(out, parseNums(v)...)
	}
	return out
}

func parseNums(s string) []float64 {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' || r == '\n' })
	var out []float64
	for _, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func atofDefault(s string, def float64) float64 {
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v
	}
	return def
}
