// OCV report: synthesize a clock tree and analyze it under on-chip
// variation — the effect the paper's introduction names as the reason
// skew-only CTS no longer suffices. Shows nominal skew, the naive
// early/late bound, and the CPPR-corrected variation skew for each flow.
//
// Run: go run ./examples/ocvreport
package main

import (
	"flag"
	"fmt"
	"log"

	"sllt/internal/baseline"
	"sllt/internal/bench"
	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/timing"
)

func main() {
	name := flag.String("design", "s38584", "Table 4 design name")
	scale := flag.Float64("scale", 0.5, "shrink factor")
	flag.Parse()

	spec, err := designgen.FindSpec(*name)
	if err != nil {
		log.Fatal(err)
	}
	spec = bench.ScaleSpec(spec, *scale)
	d := designgen.Generate(spec, 1)
	ocv := timing.DefaultOCV()
	fmt.Printf("design %s: %d sinks; derates wire %.0f%%/cell %.0f%%\n\n",
		spec.Name, d.NumFFs(), (ocv.WireLate-1)*100, (ocv.CellLate-1)*100)
	fmt.Printf("%-6s %12s %12s %12s %12s\n", "flow", "nominal(ps)", "naive(ps)", "cppr(ps)", "pessimism")

	for _, e := range baseline.Engines {
		opts := e.Options()
		res, err := cts.Run(d, opts)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := timing.AnalyzeOCV(res.Tree, opts.Lib, opts.Tech, opts.SourceSlew, ocv)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6s %12.2f %12.2f %12.2f %12.2f\n",
			e.Label, res.Report.Skew, rep.NaiveSkew, rep.Skew, rep.Pessimism)
	}
}
