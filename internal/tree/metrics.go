package tree

import (
	"math"

	"sllt/internal/geom"
)

// Metrics aggregates the SLLT quality measures of a clock tree.
//
// Shallowness α = max over sinks of PL(s)/MD(s)   (latency proxy)
// Lightness   β = WL(T)/WL(reference RSMT)        (load-capacitance proxy)
// Skewness    γ = max PL / mean PL                (skew proxy, Definition 2.1)
type Metrics struct {
	NumSinks int
	MaxPL    float64 // longest source-to-sink path length
	MinPL    float64 // shortest source-to-sink path length
	MeanPL   float64 // average source-to-sink path length
	WL       float64 // total wirelength
	Alpha    float64 // shallowness
	Beta     float64 // lightness (0 when no reference given)
	Gamma    float64 // skewness
}

// Mean returns the average of α, β and γ — the paper's Table 1 "Mean" column.
func (m Metrics) Mean() float64 { return (m.Alpha + m.Beta + m.Gamma) / 3 }

// Measure computes the SLLT metrics of t with respect to net (which supplies
// the Manhattan-distance denominators for α). refWL is the wirelength of the
// reference RSMT used as the β denominator; pass 0 to skip β.
//
// Sinks co-located with the source are skipped in the α maximum (their
// Manhattan distance is zero, making shallowness undefined there).
func Measure(t *Tree, net *Net, refWL float64) Metrics {
	m := Metrics{MinPL: math.Inf(1)}
	var sumPL float64
	t.Walk(func(n *Node) bool {
		m.WL += n.EdgeLen
		if n.Kind != Sink {
			return true
		}
		pl := PathLength(n)
		sumPL += pl
		m.NumSinks++
		if pl > m.MaxPL {
			m.MaxPL = pl
		}
		if pl < m.MinPL {
			m.MinPL = pl
		}
		md := net.Source.Dist(n.Loc)
		if md > 0 {
			if a := pl / md; a > m.Alpha {
				m.Alpha = a
			}
		}
		return true
	})
	if m.NumSinks == 0 {
		m.MinPL = 0
		return m
	}
	m.MeanPL = sumPL / float64(m.NumSinks)
	if m.MeanPL > 0 {
		m.Gamma = m.MaxPL / m.MeanPL
	} else {
		m.Gamma = 1
	}
	if refWL > 0 {
		m.Beta = m.WL / refWL
	}
	return m
}

// Dispersion returns max_s MD(s) / mean_s MD(s) for the net — the left-hand
// side of the paper's Equation (4).
func Dispersion(net *Net) float64 {
	var sum, max float64
	n := 0
	for _, s := range net.Sinks {
		d := net.Source.Dist(s.Loc)
		sum += d
		if d > max {
			max = d
		}
		n++
	}
	if n == 0 || geom.Sign(sum) == 0 {
		return 1
	}
	return max / (sum / float64(n))
}

// Theorem23Binding reports whether the paper's Theorem 2.3 applies at the
// given ε: when the pin dispersion exceeds (1+ε)², no SLLT over the net can
// simultaneously achieve α ≤ 1+ε and γ ≤ 1+ε.
func Theorem23Binding(net *Net, eps float64) bool {
	bound := (1 + eps) * (1 + eps)
	return Dispersion(net) > bound
}
