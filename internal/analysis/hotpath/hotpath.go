// Package hotpath verifies allocation discipline in annotated hot kernels.
// A function annotated // hot: must keep its loops free of allocation
// sources; // hot: alloc-free extends the contract to the whole body and
// every callee. The analyzer computes an allocation summary for every
// function in the batch, runs a cleanliness fixpoint over the call graph
// (a function is allocation-free iff its own body has no allocation sources
// and every resolved callee is annotated alloc-free or proven clean), and
// reports each violation at the allocating site so //slltlint:ignore
// directives stay local to the line they justify.
//
// With escape checking enabled (slltlint -escapecheck), the analyzer also
// runs `go build -gcflags=-m` over every package containing an alloc-free
// annotation and reconciles the compiler's escape diagnostics against the
// static findings: a finding whose line the compiler marks "escapes to heap"
// or "moved to heap" is upgraded to [compiler-confirmed]; a heuristic
// finding (literal, boxing, closure, make, conversion) whose line the
// compiler proves "does not escape" is dropped as a false positive; an
// escape the heuristics missed becomes its own [compiler-confirmed] finding;
// and surviving heuristic findings are tiered [static heuristic]. The
// compiler replays -m diagnostics from the build cache, so the cross-check
// is cheap and deterministic after the first build.
package hotpath

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"sllt/internal/analysis"
)

// Analyzer is the hotpath rule.
var Analyzer = &analysis.Analyzer{
	Name:    "hotpath",
	Doc:     "verifies that // hot: kernels do not allocate in loop context and // hot: alloc-free kernels do not allocate at all: no escaping composite literals, unprovisioned appends, interface boxing, closure captures, fmt/errors construction, string<->[]byte conversions, or calls into functions not proven allocation-free",
	URL:     "DESIGN.md#allocation-discipline",
	Prepare: prepare,
	Run:     run,
}

// reg holds the batch-wide state between Prepare and the per-package Run
// passes, rebuilt on every Run invocation.
var reg *registry

func prepare(pkgs []*analysis.Package) error {
	reg = newRegistry()
	for _, p := range pkgs {
		reg.batch[p.ImportPath] = true
	}
	if len(pkgs) > 0 {
		reg.modPrefix = analysis.ModulePrefix(pkgs[0].ImportPath)
		reg.modDir = pkgs[0].ModDir
	}
	for _, p := range pkgs {
		collectAnnotations(p, reg)
	}
	for _, p := range pkgs {
		collectSummaries(p, reg)
	}
	if err := runEscapeAnalysis(reg); err != nil {
		return err
	}
	finalize(reg)
	return nil
}

func run(pass *analysis.Pass) error {
	if reg == nil {
		return nil
	}
	for _, d := range reg.diags[pass.Pkg.Path()] {
		pass.Reportf(d.pos, "%s", d.msg)
	}
	return nil
}

// ---- cleanliness fixpoint + reporting ----

// dirtCause explains why a function is not allocation-free: the rendered
// root-cause site, plus the call chain (display names) leading down to it.
type dirtCause struct {
	msg   string
	chain []string
}

// finalize runs the cleanliness fixpoint, then renders findings for every
// annotation, reconciling them against compiler escape diagnostics when
// escape checking is on.
func finalize(reg *registry) {
	keys := analysis.SortedKeys(reg.sums)
	dirty := map[string]*dirtCause{}

	// Seed: any cleanliness-relevant site in a function's own body makes it
	// dirty, attributed to the first such site in source order.
	for _, k := range keys {
		s := reg.sums[k]
		for _, site := range s.sites {
			if cleanliness(site.kind) {
				dirty[k] = &dirtCause{msg: siteText(site.kind, site.detail)}
				break
			}
		}
	}

	// Propagate dirtiness across call edges. Alloc-free-annotated callees
	// are trusted boundaries — their contract is verified at their own
	// declaration — so dirtiness does not flow through them. A missing
	// callee summary (declaration in a skipped file) is itself dirtying:
	// what cannot be summarized cannot be proven clean.
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			if dirty[k] != nil {
				continue
			}
			s := reg.sums[k]
			for _, e := range s.callees {
				if a := reg.funcs[e.key]; a != nil && a.tier == tierAllocFree {
					continue
				}
				callee := reg.sums[e.key]
				c := dirty[e.key]
				if c == nil && callee != nil {
					continue // clean so far; later rounds revisit
				}
				name := e.key
				if callee != nil {
					name = callee.name
				}
				cause := &dirtCause{msg: "has no summary in this batch", chain: []string{name}}
				if c != nil {
					cause = &dirtCause{msg: c.msg, chain: appendChain(name, c.chain)}
				}
				dirty[k] = cause
				changed = true
				break
			}
		}
	}

	for _, k := range analysis.SortedKeys(reg.funcs) {
		ann := reg.funcs[k]
		s := reg.sums[k]
		if s == nil {
			reg.report(ann.pkg, ann.pos,
				"%s annotation on %s cannot be verified: no function summary (declaration skipped or generated)",
				tierWord(ann.tier), ann.name)
			continue
		}
		emitFindings(reg, ann, s, dirty)
	}
}

// pending is one finding before escape reconciliation.
type pending struct {
	pos  token.Pos
	line int
	msg  string
	heur bool // escape-clearable heuristic kind
}

// emitFindings renders one annotation's violations at their sites.
func emitFindings(reg *registry, ann *funcAnn, s *summary, dirty map[string]*dirtCause) {
	subject := fmt.Sprintf("%s %s", tierWord(ann.tier), ann.name)
	var pend []pending
	add := func(pos token.Pos, heur bool, format string, args ...any) {
		pend = append(pend, pending{
			pos:  pos,
			line: ann.file.Position(pos).Line,
			msg:  fmt.Sprintf(format, args...),
			heur: heur,
		})
	}
	loopSuffix := func(inLoop bool) string {
		if ann.tier == tierHot && inLoop {
			return " in loop context"
		}
		return ""
	}

	for _, site := range s.sites {
		if ann.tier == tierHot && !site.inLoop {
			continue // hot tier: setup may allocate
		}
		heur := heuristic(site.kind)
		suffix := loopSuffix(site.inLoop)
		if site.kind == siteDefer {
			suffix = "" // the message already names the loop
		}
		add(site.pos, heur, "%s %s%s", subject, siteText(site.kind, site.detail), suffix)
	}

	for _, e := range s.callees {
		calleeAnn := reg.funcs[e.key]
		if ann.tier == tierHot {
			if !e.inLoop {
				continue
			}
			// Either annotation tier is a trusted boundary for a hot-tier
			// caller: a hot callee's own loops are verified at its site.
			if calleeAnn != nil {
				continue
			}
		} else if calleeAnn != nil && calleeAnn.tier == tierAllocFree {
			continue
		}
		c := dirty[e.key]
		if c == nil {
			if reg.sums[e.key] == nil {
				add(e.pos, false, "%s calls %s, which has no summary in this batch%s",
					subject, e.key, loopSuffix(e.inLoop))
			}
			continue
		}
		name := e.key
		if cs := reg.sums[e.key]; cs != nil {
			name = cs.name
		}
		via := ""
		if len(c.chain) > 0 {
			path := append([]string{name}, c.chain...)
			if len(path) > 4 {
				path = append(path[:4:4], "…")
			}
			via = " (via " + strings.Join(path, " → ") + ")"
		}
		add(e.pos, false, "%s calls %s, which %s%s%s", subject, name, c.msg, via, loopSuffix(e.inLoop))
	}

	pend = reconcileEscapes(reg, ann, subject, pend)
	sort.SliceStable(pend, func(i, j int) bool { return pend[i].pos < pend[j].pos })
	for _, p := range pend {
		reg.report(ann.pkg, p.pos, "%s", p.msg)
	}
}

func appendChain(name string, chain []string) []string {
	out := make([]string, 0, len(chain)+1)
	out = append(out, name)
	return append(out, chain...)
}

// siteText renders one allocation source.
func siteText(kind siteKind, detail string) string {
	switch kind {
	case siteMake:
		return fmt.Sprintf("allocates %s", detail)
	case siteNew:
		return fmt.Sprintf("allocates %s", detail)
	case siteLit:
		return fmt.Sprintf("constructs %s on the heap", detail)
	case siteAppend:
		return fmt.Sprintf("grows %s by append without capacity provenance (reslice pooled or caller-provided backing, or make it with a real size)", detail)
	case siteBox:
		return fmt.Sprintf("boxes %s", detail)
	case siteConstruct:
		return fmt.Sprintf("calls %s, which constructs its result on the heap", detail)
	case siteConv:
		return fmt.Sprintf("converts %s, which copies the payload", detail)
	case siteStdlib:
		return fmt.Sprintf("calls %s, which is not on the alloc-free stdlib allowlist", detail)
	case siteModule:
		return fmt.Sprintf("calls %s, which is outside this lint batch; run slltlint over the whole module to verify it", detail)
	case siteIface:
		return fmt.Sprintf("calls interface method %s; the implementation cannot be verified allocation-free", detail)
	case siteDynamic:
		return fmt.Sprintf("calls through package-level func value %s, which cannot be verified allocation-free", detail)
	case siteGo:
		return "spawns a goroutine, which allocates its stack"
	case siteDefer:
		return "defers inside a loop; per-iteration defer records are heap-allocated"
	case siteClosure:
		return fmt.Sprintf("builds a closure capturing %s, which allocates if the literal escapes", detail)
	}
	return detail
}
