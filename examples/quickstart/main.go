// Quickstart: build one skew-latency-load tree with CBS and inspect its
// SLLT metrics (shallowness α, lightness β, skewness γ).
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"sllt/internal/core"
	"sllt/internal/dme"
	"sllt/internal/geom"
	"sllt/internal/rsmt"
	"sllt/internal/tech"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

func main() {
	// A clock net: one driver, a handful of flip-flop clock pins.
	net := &tree.Net{
		Name:   "clk_core",
		Source: geom.Pt(40, 40),
		Sinks: []tree.PinSink{
			{Name: "ff_a/CK", Loc: geom.Pt(10, 12), Cap: 1.2},
			{Name: "ff_b/CK", Loc: geom.Pt(25, 70), Cap: 1.2},
			{Name: "ff_c/CK", Loc: geom.Pt(48, 25), Cap: 1.2},
			{Name: "ff_d/CK", Loc: geom.Pt(60, 64), Cap: 1.2},
			{Name: "ff_e/CK", Loc: geom.Pt(75, 40), Cap: 1.2},
			{Name: "ff_f/CK", Loc: geom.Pt(12, 48), Cap: 1.2},
			{Name: "ff_g/CK", Loc: geom.Pt(66, 9), Cap: 1.2},
		},
	}

	// CBS under the Elmore delay model with a 10 ps skew bound.
	tc := tech.Default28nm()
	opts := core.Options{
		DME:        dme.Options{Model: dme.Elmore, SkewBound: 10, Tech: tc},
		TopoMethod: dme.GreedyDist,
		SALTEps:    0.1,
	}
	t, err := core.Build(net, opts)
	if err != nil {
		log.Fatal(err)
	}

	// SLLT metrics: β is measured against the RSMT wirelength.
	m := tree.Measure(t, net, rsmt.WL(net))
	fmt.Printf("net %q: %d sinks\n", net.Name, len(net.Sinks))
	fmt.Printf("wirelength    : %.1f um\n", m.WL)
	fmt.Printf("shallowness α : %.3f  (max path / Manhattan distance)\n", m.Alpha)
	fmt.Printf("lightness   β : %.3f  (wire / RSMT wire)\n", m.Beta)
	fmt.Printf("skewness    γ : %.3f  (max path / mean path)\n", m.Gamma)

	rep, err := timing.Analyze(t, nil, tc, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wire delay    : %.2f ps (max), skew %.2f ps (bound 10)\n", rep.MaxLatency, rep.Skew)
}
