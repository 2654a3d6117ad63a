package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"sllt/internal/core"
	"sllt/internal/dme"
	"sllt/internal/parallel"
	"sllt/internal/salt"
	"sllt/internal/tech"
	"sllt/internal/timing"
)

// T23Config parameterizes the random-net comparisons of Tables 2 and 3.
type T23Config struct {
	Nets    int // nets per (method, bound) cell; the paper uses 10 000
	Seed    int64
	Bounds  []float64 // skew bounds in ps (paper: 80, 10, 5)
	Methods []dme.TopoMethod
	Net     NetConfig
	Tech    tech.Tech
	SALTEps float64
	// Workers fans the independent (method, bound) cells out over
	// goroutines. Each cell owns a private RNG seeded from Seed alone, so
	// cell results are identical for any Workers value; <= 1 runs serially.
	Workers int
}

// DefaultT23Config returns the paper's parameters with a reduced default
// net count (raise Nets to 10000 for the full experiment).
func DefaultT23Config() T23Config {
	return T23Config{
		Nets:    400,
		Seed:    1,
		Bounds:  []float64{80, 10, 5},
		Methods: []dme.TopoMethod{dme.GreedyDist, dme.GreedyMerge, dme.BiPartition},
		Net:     DefaultNetConfig(),
		Tech:    tech.Default28nm(),
		SALTEps: 0.1,
	}
}

// T2Cell is one Table 2 cell: mean wirelengths of R-SALT and CBS for a
// (method, bound) pair, over cfg.Nets random nets.
type T2Cell struct {
	Method dme.TopoMethod
	Bound  float64
	RSALT  float64
	CBS    float64
}

// ReducePct returns the paper's "Reduce" row: CBS improvement over R-SALT.
func (c T2Cell) ReducePct() float64 {
	if c.RSALT == 0 {
		return 0
	}
	return (c.RSALT - c.CBS) / c.RSALT * 100
}

// RunTable2 reproduces Table 2: wirelength comparison between R-SALT and
// CBS across topology generators and skew bounds. The (method, bound)
// cells are independent — each re-derives its net stream from cfg.Seed —
// so they fan out over cfg.Workers, each task writing only its own cell.
func RunTable2(cfg T23Config) ([]T2Cell, error) {
	type cellSpec struct {
		method dme.TopoMethod
		bound  float64
	}
	var specs []cellSpec
	for _, method := range cfg.Methods {
		for _, bound := range cfg.Bounds {
			specs = append(specs, cellSpec{method, bound})
		}
	}
	out := make([]T2Cell, len(specs))
	err := parallel.ForEach(cfg.Workers, len(specs), func(ci int) error {
		method, bound := specs[ci].method, specs[ci].bound
		rng := rand.New(rand.NewSource(cfg.Seed))
		var sumS, sumC float64
		for i := 0; i < cfg.Nets; i++ {
			net := cfg.Net.Random(rng)
			sumS += salt.Build(net, cfg.SALTEps).Wirelength()
			cbs, err := core.Build(net, core.Options{
				DME:        dme.Options{Model: dme.Elmore, SkewBound: bound, Tech: cfg.Tech},
				TopoMethod: method,
				SALTEps:    cfg.SALTEps,
			})
			if err != nil {
				return fmt.Errorf("table2 %v/%gps net %d: %w", method, bound, i, err)
			}
			sumC += cbs.Wirelength()
		}
		n := float64(cfg.Nets)
		out[ci] = T2Cell{Method: method, Bound: bound, RSALT: sumS / n, CBS: sumC / n}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatTable2 renders cells in the paper's Table 2 layout.
func FormatTable2(cells []T2Cell, cfg T23Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: Wirelength (um) comparison between R-SALT and CBS (%d nets/cell)\n", cfg.Nets)
	byMethod := map[dme.TopoMethod][]T2Cell{}
	var order []dme.TopoMethod
	for _, c := range cells {
		if _, ok := byMethod[c.Method]; !ok {
			order = append(order, c.Method)
		}
		byMethod[c.Method] = append(byMethod[c.Method], c)
	}
	for _, m := range order {
		fmt.Fprintf(&b, "-- %v --\n", m)
		cs := byMethod[m]
		fmt.Fprintf(&b, "%-10s", "Skew(ps)")
		for _, c := range cs {
			fmt.Fprintf(&b, " %8.0f", c.Bound)
		}
		fmt.Fprintf(&b, "\n%-10s", "R-SALT")
		for _, c := range cs {
			fmt.Fprintf(&b, " %8.1f", c.RSALT)
		}
		fmt.Fprintf(&b, "\n%-10s", "CBS")
		for _, c := range cs {
			fmt.Fprintf(&b, " %8.1f", c.CBS)
		}
		fmt.Fprintf(&b, "\n%-10s", "Reduce")
		for _, c := range cs {
			fmt.Fprintf(&b, " %7.2f%%", c.ReducePct())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// T3Cell is one Table 3 column: BST-DME vs CBS on wirelength, load
// capacitance and wire delay at one skew bound.
type T3Cell struct {
	Bound                   float64
	BSTWL, BSTCap, BSTDelay float64
	CBSWL, CBSCap, CBSDelay float64
}

// RunTable3 reproduces Table 3: BST-DME vs CBS under the Greedy-Dist
// topology. Load capacitance is Σ pin caps + c·WL; wire delay is the
// maximum unbuffered Elmore sink delay. Like Table 2, the per-bound cells
// re-derive their net streams from cfg.Seed and fan out over cfg.Workers.
func RunTable3(cfg T23Config) ([]T3Cell, error) {
	out := make([]T3Cell, len(cfg.Bounds))
	err := parallel.ForEach(cfg.Workers, len(cfg.Bounds), func(ci int) error {
		bound := cfg.Bounds[ci]
		rng := rand.New(rand.NewSource(cfg.Seed))
		var cell T3Cell
		cell.Bound = bound
		for i := 0; i < cfg.Nets; i++ {
			net := cfg.Net.Random(rng)
			dopts := dme.Options{Model: dme.Elmore, SkewBound: bound, Tech: cfg.Tech}

			topo := dme.GenTopo(net, dme.GreedyDist, dopts.LengthBudget(net))
			bst, err := dme.Build(net, topo, dopts)
			if err != nil {
				return fmt.Errorf("table3 BST %gps net %d: %w", bound, i, err)
			}
			cbs, err := core.Build(net, core.Options{
				DME: dopts, TopoMethod: dme.GreedyDist, SALTEps: cfg.SALTEps,
			})
			if err != nil {
				return fmt.Errorf("table3 CBS %gps net %d: %w", bound, i, err)
			}
			cell.BSTWL += bst.Wirelength()
			cell.CBSWL += cbs.Wirelength()
			cell.BSTCap += net.TotalPinCap() + cfg.Tech.WireCap(bst.Wirelength())
			cell.CBSCap += net.TotalPinCap() + cfg.Tech.WireCap(cbs.Wirelength())
			bd, err := timing.Analyze(bst, nil, cfg.Tech, 0)
			if err != nil {
				return fmt.Errorf("table3 BST %gps net %d: %w", bound, i, err)
			}
			cd, err := timing.Analyze(cbs, nil, cfg.Tech, 0)
			if err != nil {
				return fmt.Errorf("table3 CBS %gps net %d: %w", bound, i, err)
			}
			cell.BSTDelay += bd.MaxLatency
			cell.CBSDelay += cd.MaxLatency
		}
		n := float64(cfg.Nets)
		cell.BSTWL /= n
		cell.CBSWL /= n
		cell.BSTCap /= n
		cell.CBSCap /= n
		cell.BSTDelay /= n
		cell.CBSDelay /= n
		out[ci] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FormatTable3 renders cells in the paper's Table 3 layout.
func FormatTable3(cells []T3Cell, cfg T23Config) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: BST-DME vs CBS on wirelength, cap, wire delay (%d nets/cell)\n", cfg.Nets)
	red := func(a, c float64) float64 {
		if a == 0 {
			return 0
		}
		return (a - c) / a * 100
	}
	sections := []struct {
		name string
		get  func(T3Cell) (bst, cbs float64)
	}{
		{"Wirelength (um)", func(c T3Cell) (float64, float64) { return c.BSTWL, c.CBSWL }},
		{"Cap (fF)", func(c T3Cell) (float64, float64) { return c.BSTCap, c.CBSCap }},
		{"Wire Delay (ps)", func(c T3Cell) (float64, float64) { return c.BSTDelay, c.CBSDelay }},
	}
	for _, sec := range sections {
		fmt.Fprintf(&b, "-- %s --\n%-10s", sec.name, "Skew(ps)")
		for _, c := range cells {
			fmt.Fprintf(&b, " %8.0f", c.Bound)
		}
		fmt.Fprintf(&b, "\n%-10s", "BST-DME")
		for _, c := range cells {
			bst, _ := sec.get(c)
			fmt.Fprintf(&b, " %8.1f", bst)
		}
		fmt.Fprintf(&b, "\n%-10s", "CBS")
		for _, c := range cells {
			_, cbs := sec.get(c)
			fmt.Fprintf(&b, " %8.1f", cbs)
		}
		fmt.Fprintf(&b, "\n%-10s", "Reduce")
		for _, c := range cells {
			bst, cbs := sec.get(c)
			fmt.Fprintf(&b, " %7.2f%%", red(bst, cbs))
		}
		b.WriteString("\n")
	}
	return b.String()
}
