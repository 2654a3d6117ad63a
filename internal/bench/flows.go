package bench

import (
	"fmt"
	"strings"
	"time"

	"sllt/internal/baseline"
	"sllt/internal/cts"
	"sllt/internal/designgen"
)

// FlowResult is one (design, flow) cell group of Tables 6/7.
type FlowResult struct {
	Design  string
	Flow    string
	Latency float64 // ps
	Skew    float64 // ps
	Buffers int
	BufArea float64 // µm²
	Cap     float64 // fF
	WL      float64 // µm
	Runtime float64 // s
	Err     error
}

// RunFlows synthesizes every design with every flow of baseline.Engines,
// labelling each result with its engine's Label. Designs are generated
// from their Table 4 statistics with the given seed. The (design, flow)
// cells run serially — their Runtime column is the wall clock the tables
// compare, so they must not compete for cores — while each synthesis
// spreads its own cluster builds over the given workers (results are
// byte-identical for any value, <= 1 serial).
func RunFlows(specs []designgen.Spec, seed int64, workers int) []FlowResult {
	var out []FlowResult
	for _, spec := range specs {
		d := designgen.Generate(spec, seed)
		for _, e := range baseline.Engines {
			opts := e.Options()
			opts.Workers = workers
			start := time.Now()
			res, err := cts.Run(d, opts)
			fr := FlowResult{Design: spec.Name, Flow: e.Label, Runtime: time.Since(start).Seconds(), Err: err}
			if err == nil {
				fr.Latency = res.Report.MaxLatency
				fr.Skew = res.Report.Skew
				fr.Buffers = res.Report.Buffers
				fr.BufArea = res.Report.BufArea
				fr.Cap = res.Report.ClockCap
				fr.WL = res.Report.WL
			}
			out = append(out, fr)
		}
	}
	return out
}

// FormatFlowTable renders results in the paper's Table 6/7 layout, including
// the trailing "Avg." row of per-metric ratios normalized to Ours.
func FormatFlowTable(title string, results []FlowResult) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	fmt.Fprintf(&b, "%-10s %-5s %9s %8s %6s %9s %9s %11s %8s\n",
		"Case", "Flow", "Lat(ps)", "Skew(ps)", "#Buf", "Area(um2)", "Cap(fF)", "WL(um)", "RT(s)")

	byDesign := map[string][]FlowResult{}
	var order []string
	for _, r := range results {
		if _, ok := byDesign[r.Design]; !ok {
			order = append(order, r.Design)
		}
		byDesign[r.Design] = append(byDesign[r.Design], r)
	}
	// Ratio accumulators per flow.
	type acc struct {
		lat, skew, buf, area, cap, wl, rt float64
		n                                 int
	}
	ratios := map[string]*acc{}
	for _, e := range baseline.Engines {
		ratios[e.Label] = &acc{}
	}

	for _, dn := range order {
		var ours *FlowResult
		for i := range byDesign[dn] {
			if byDesign[dn][i].Flow == "Ours" {
				ours = &byDesign[dn][i]
			}
		}
		for _, r := range byDesign[dn] {
			if r.Err != nil {
				fmt.Fprintf(&b, "%-10s %-5s ERROR: %v\n", r.Design, r.Flow, r.Err)
				continue
			}
			fmt.Fprintf(&b, "%-10s %-5s %9.1f %8.1f %6d %9.1f %9.1f %11.1f %8.2f\n",
				r.Design, r.Flow, r.Latency, r.Skew, r.Buffers, r.BufArea, r.Cap, r.WL, r.Runtime)
			if ours != nil && ours.Err == nil && ours.Latency > 0 {
				a := ratios[r.Flow]
				a.lat += r.Latency / ours.Latency
				a.skew += safeRatio(r.Skew, ours.Skew)
				a.buf += float64(r.Buffers) / float64(ours.Buffers)
				a.area += r.BufArea / ours.BufArea
				a.cap += r.Cap / ours.Cap
				a.wl += r.WL / ours.WL
				a.rt += safeRatio(r.Runtime, ours.Runtime)
				a.n++
			}
		}
	}
	b.WriteString("---- Avg. ratios (normalized to Ours) ----\n")
	for _, e := range baseline.Engines {
		a := ratios[e.Label]
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		fmt.Fprintf(&b, "%-10s %-5s %9.3f %8.3f %6.3f %9.3f %9.3f %11.3f %8.3f\n",
			"Avg.", e.Label, a.lat/n, a.skew/n, a.buf/n, a.area/n, a.cap/n, a.wl/n, a.rt/n)
	}
	return b.String()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}

// Table6Specs returns the six open designs of Table 6.
func Table6Specs() []designgen.Spec {
	return designgen.Table4()[:6]
}

// Table7Specs returns the four ysyx designs of Table 7.
func Table7Specs() []designgen.Spec {
	return designgen.Table4()[6:]
}

// ScaleSpec shrinks a design spec by the given factor (for fast benchmark
// defaults on the very large ysyx designs), preserving utilization.
func ScaleSpec(s designgen.Spec, factor float64) designgen.Spec {
	if factor >= 1 || factor <= 0 {
		return s
	}
	s.Name = fmt.Sprintf("%s@%.0f%%", s.Name, factor*100)
	s.Insts = int(float64(s.Insts) * factor)
	s.FFs = int(float64(s.FFs) * factor)
	if s.FFs < 10 {
		s.FFs = 10
	}
	if s.Insts < s.FFs {
		s.Insts = s.FFs
	}
	return s
}
