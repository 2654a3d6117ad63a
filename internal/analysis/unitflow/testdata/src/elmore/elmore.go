// Package elmore exercises the unitflow annotation grammar and dimensional
// algebra: positive derivations (kΩ·fF → ps, fF/µm · µm → fF) must stay
// silent, deliberate mixes must be rejected naming both units.
package elmore

import "math"

// Tech mirrors the real technology table's per-unit-length constants.
type Tech struct {
	RPerUm  float64 // unit: kohm/um
	CPerUm  float64 // unit: fF/um
	SinkCap float64 // unit: fF
}

// Node is a clock-tree node with a load and an arrival time.
type Node struct {
	Cap   float64 // unit: fF
	Delay float64 // unit: ps
}

// NominalSlew is the reference transition time.
const NominalSlew = 20.0 // unit: ps

// WireCap is the capacitance of a wire: fF/µm · µm must derive fF, and the
// annotated result enforces that the algebra actually lands there.
// unit: length um -> fF
func (t Tech) WireCap(length float64) float64 {
	return t.CPerUm * length
}

// WireElmore is the Elmore delay of a loaded wire: kΩ · fF must derive ps.
// unit: length um, load fF -> ps
func (t Tech) WireElmore(length, load float64) float64 {
	r := t.RPerUm * length
	return r * (t.WireCap(length)/2 + load)
}

// LoadOf inverts Elmore: ps / kΩ must derive fF.
// unit: d ps, r kohm -> fF
func LoadOf(d, r float64) float64 {
	return d / r
}

// Mean averages element units through range, accumulation and len().
// unit: xs um -> um
func Mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Area squares a length through a compound assignment.
// unit: step um -> um²
func Area(step float64) float64 {
	a := step
	a *= step
	return a
}

// Diag recovers a length from an area.
// unit: area um² -> um
func Diag(area float64) float64 {
	return math.Sqrt(area)
}

// Slew scales the nominal slew by a dimensionless load ratio.
// unit: load fF -> ps
func Slew(t Tech, load float64) float64 {
	return NominalSlew * (load / t.SinkCap)
}

// BadSum mixes time and capacitance.
// unit: d ps, c fF -> ps
func BadSum(d, c float64) float64 {
	return d + c // want "cannot add \"ps\" and \"fF\""
}

// BadDensity adds a capacitance to a capacitance density.
// unit: c fF -> fF
func BadDensity(t Tech, c float64) float64 {
	return c + t.CPerUm // want "cannot add \"fF\" and \"fF/µm\""
}

// BadLoad passes a wire length where a load is expected.
// unit: length um -> ps
func BadLoad(t Tech, length float64) float64 {
	return t.WireElmore(length, length) // want "argument \"load\" of WireElmore wants \"fF\", got \"µm\""
}

// BadReturn returns a capacitance as a delay.
// unit: length um -> ps
func BadReturn(t Tech, length float64) float64 {
	return t.WireCap(length) // want "returning \"fF\" where result 1 is declared \"ps\""
}

// BadSqrt takes the square root of a bare time.
// unit: d ps -> ps
func BadSqrt(d float64) float64 {
	return math.Sqrt(d) // want "math.Sqrt of \"ps\" is dimensionally incoherent"
}

// BadCompare orders a skew against a wirelength.
// unit: skew ps, wl um -> 1
func BadCompare(skew, wl float64) float64 {
	if skew > wl { // want "cannot compare \"ps\" and \"µm\""
		return 1
	}
	return 0
}

// BadStore writes a delay into a capacitance field.
// unit: d ps ->
func BadStore(n *Node, d float64) {
	n.Cap = d // want "cannot assign \"ps\" to Cap (declared \"fF\")"
}

// BadLiteral builds a node with its fields crossed.
// unit: d ps ->
func BadLiteral(d float64) Node {
	return Node{Cap: d, Delay: d} // want "field Cap declared \"fF\", got \"ps\""
}

// BadSwitch compares a delay tag against a capacitance case.
// unit: d ps, c fF -> 1
func BadSwitch(d, c float64) int {
	switch d {
	case c: // want "cannot compare \"ps\" and \"fF\""
		return 1
	}
	return 0
}

// BadLocal binds a wirelength to a locally-annotated time budget.
// unit: length um -> ps
func BadLocal(length float64) float64 {
	var budget = length // unit: ps // want "cannot assign \"µm\" to budget (declared \"ps\")"
	return budget
}

// Suppressed mixes units on purpose; the ignore directive must absorb the
// diagnostic.
// unit: d ps, c fF -> ps
func Suppressed(d, c float64) float64 {
	//slltlint:ignore unitflow deliberate mixed-unit fixture
	return d + c
}

// BadAnn carries a typo'd unit token, which must itself be a diagnostic.
type BadAnn struct {
	X float64 // unit: pss // want "unknown unit \"pss\""
}

// BadParamName annotates a parameter the function does not declare.
// unit: wl um -> ps
func BadParamName(length float64) float64 { // want "names parameter \"wl\""
	return 0
}
