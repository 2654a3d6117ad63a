// Package tech holds the process-technology parameters shared by delay,
// capacitance and buffering calculations.
//
// Unit system (chosen so Elmore products come out in picoseconds directly):
//
//	length       µm
//	resistance   kΩ (wire resistance given per µm)
//	capacitance  fF (wire capacitance given per µm)
//	time         ps   (1 kΩ · 1 fF = 1 ps)
//	area         µm²
//
// The default values model a 28 nm process clock routing layer pair; they are
// synthetic (no PDK is available) but calibrated so that net-level wire
// delays, load capacitances and full-flow latencies land in the ranges the
// paper reports (Tables 2, 3, 6, 7).
package tech

import "math"

// Tech is a process technology description.
type Tech struct {
	Name string

	// RPerUm is wire resistance in kΩ/µm.
	RPerUm float64 // unit: kohm/um
	// CPerUm is wire capacitance in fF/µm.
	CPerUm float64 // unit: fF/um
	// SinkCap is the default flip-flop clock pin capacitance in fF.
	SinkCap float64 // unit: fF
}

// Default28nm returns the synthetic 28 nm-class technology used throughout
// the experiments.
func Default28nm() Tech {
	return Tech{
		Name:    "sim28",
		RPerUm:  0.003, // 3 Ω/µm
		CPerUm:  0.12,  // 0.12 fF/µm
		SinkCap: 1.2,   // fF
	}
}

// WireCap returns the capacitance of length µm of wire, in fF.
//
// unit: length um -> fF
func (t Tech) WireCap(length float64) float64 { return t.CPerUm * length }

// WireElmore returns the Elmore delay in ps of a wire of the given length
// driving the given downstream load (fF): r·L·(c·L/2 + load).
//
// unit: length um, load fF -> ps
func (t Tech) WireElmore(length, load float64) float64 {
	return t.RPerUm * length * (t.CPerUm*length/2 + load)
}

// ElmoreLength inverts WireElmore: it returns the wire length whose Elmore
// delay into the given load reaches target, the positive root of
// r·L·(c·L/2 + load) = target, and 0 for a target that is not positive.
//
// unit: target ps, load fF -> um
func (t Tech) ElmoreLength(target, load float64) float64 {
	if target <= 0 {
		return 0
	}
	a := t.RPerUm * t.CPerUm / 2
	b := t.RPerUm * load
	return (-b + math.Sqrt(b*b+4*a*target)) / (2 * a)
}
