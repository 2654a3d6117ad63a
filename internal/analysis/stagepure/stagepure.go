// Package stagepure verifies the purity contracts that make flow stages
// cacheable. A function annotated // stage: <name> or // pure: must be a
// pure function of its arguments: the analyzer computes an effect summary
// for every function in the batch, propagates parameter-mutation facts
// across call edges to a fixpoint, and walks the call graph from each
// annotated function reporting every reachable impurity — package-state
// reads and writes, wall-clock reads, draws from the global rand stream,
// I/O, unvetted dynamic calls, and mutation of arguments that form the
// cache key.
//
// Annotated callees are trusted boundaries: a caller's check stops at them,
// so each contract is verified exactly once, where it is declared. Calls
// into sllt/internal/obs are exempt (the recorder observes and never feeds
// back — the obs-on/obs-off golden tests enforce this at runtime), and so
// are obs-typed parameters.
//
// Mutation tracking is field-sensitive at one level: struct composite
// literals are tracked per field, selections off parameters record which
// field the alias came from, and call edges conduct a callee's mutations
// only when the mutated field matches the field that held the alias. A
// builder that retains a caller slice read-only in one field while mutating
// a private copy in another therefore stays pure; append with a
// reference-free element type counts as a genuine copy.
//
// Known, deliberate gaps (soundness trades for signal): aliases of package
// variables captured into locals before mutation, globals mutated through
// callee parameters, functions that return aliases of their arguments, and
// two pointers to the same struct tracked as separate containers are not
// chased. The determinism analyzers (sharedstate, seededrand, maporder) own
// the hazards those would mostly duplicate.
package stagepure

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sllt/internal/analysis"
)

// Analyzer is the stagepure rule.
var Analyzer = &analysis.Analyzer{
	Name:    "stagepure",
	Doc:     "verifies that // stage: and // pure: annotated functions are pure functions of their arguments (cacheable): no package-state reads or writes, wall clock, global rand, I/O, unvetted dynamic calls, or mutation of cache-key arguments",
	URL:     "DESIGN.md#purity--cancellation-contracts",
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
	}
	for _, p := range pkgs {
		collectAnnotations(p, reg)
	}
	for _, p := range pkgs {
		scanGlobalWrites(p, reg)
	}
	for _, p := range pkgs {
		collectSummaries(p, reg)
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

// scanGlobalWrites records every package-level variable assigned outside
// its own declaration and outside init functions. Reads of such vars are
// impure; vars only written at declaration time are effectively constants.
func scanGlobalWrites(pkg *analysis.Package, reg *registry) {
	mark := func(e ast.Expr) {
		if key := writeTargetGlobal(pkg, e); key != "" {
			if _, seen := reg.mutGlobal[key]; !seen {
				reg.mutGlobal[key] = e.Pos()
			}
		}
	}
	for _, f := range pkg.Files {
		if analysis.SkipFile(pkg.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					if s.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range s.Lhs {
						mark(lhs)
					}
				case *ast.IncDecStmt:
					mark(s.X)
				case *ast.RangeStmt:
					if s.Tok == token.ASSIGN {
						mark(s.Key)
						mark(s.Value)
					}
				}
				return true
			})
		}
	}
}

// writeTargetGlobal resolves an assignment target to the package-level var
// it writes into, or "". The root identifier is what matters: g = v,
// g[i] = v, g.f = v and *g = v all mutate g's state.
func writeTargetGlobal(pkg *analysis.Package, e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Qualified cross-package write pkg.Var = v.
			if qual, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := pkg.TypesInfo.Uses[qual].(*types.PkgName); isPkg {
					return analysis.GlobalKey(pkg.TypesInfo.Uses[x.Sel])
				}
			}
			e = x.X
		case *ast.Ident:
			obj := pkg.TypesInfo.Uses[x]
			if obj == nil {
				obj = pkg.TypesInfo.Defs[x]
			}
			return analysis.GlobalKey(obj)
		default:
			return ""
		}
	}
}

// ---- fixpoint + reporting ----

// finalize propagates parameter mutations across call edges to a fixpoint,
// then walks the call graph from each annotated function and renders every
// reachable impurity as a diagnostic at the annotation site.
func finalize(reg *registry) {
	keys := analysis.SortedKeys(reg.sums)
	for _, k := range keys {
		s := reg.sums[k]
		s.allMutates = make(map[mutKey]mutation, len(s.mutates))
		for i, m := range s.mutates {
			s.allMutates[i] = m
		}
	}
	// Mutation fixpoint: a tainted argument to a mutating callee mutates
	// the caller's parameter too. Edges narrowed to one field of the callee
	// parameter (the argument was a tracked struct) only conduct mutations
	// of that field; a mutation with an unknown field ("") conducts through
	// any edge. Annotated callees are trusted boundaries — their contract is
	// verified at their own declaration.
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			s := reg.sums[k]
			for _, fl := range s.flows {
				if reg.funcs[fl.calleeKey] != nil {
					continue
				}
				callee := reg.sums[fl.calleeKey]
				if callee == nil {
					continue
				}
				for _, mk := range sortedMutKeys(callee.allMutates) {
					if mk.param != fl.calleeParam {
						continue
					}
					if fl.calleeField != "" && mk.field != "" && mk.field != fl.calleeField {
						continue
					}
					ck := mutKey{param: fl.callerParam, field: fl.callerField}
					if _, have := s.allMutates[ck]; have {
						continue
					}
					cm := callee.allMutates[mk]
					via := callee.name
					if cm.via != "" {
						via += " → " + cm.via
					}
					s.allMutates[ck] = mutation{
						name: s.paramNames[fl.callerParam], pos: fl.pos, via: via,
					}
					changed = true
				}
			}
		}
	}

	for _, k := range analysis.SortedKeys(reg.funcs) {
		ann := reg.funcs[k]
		s := reg.sums[k]
		if s == nil {
			reg.report(ann.pkg, ann.pos, "%s annotation on %s cannot be verified: no function summary (declaration skipped or generated)",
				annWord(ann.kind), ann.name)
			continue
		}
		emitFindings(reg, ann, s)
	}
}

// A cause is one reachable impurity, attributed through the call chain that
// reaches it.
type cause struct {
	kind   effectKind
	detail string
	chain  []string // callee display names from the annotated function down
}

// emitFindings BFS-walks the call graph from s, collecting each distinct
// (kind, detail) impurity with its shortest call chain, then renders the
// diagnostics in deterministic order.
func emitFindings(reg *registry, ann *funcAnn, root *summary) {
	type item struct {
		key   string
		chain []string
	}
	visited := map[string]bool{root.key: true}
	queue := []item{{key: root.key}}
	causes := map[string]cause{}
	addCause := func(kind effectKind, detail string, chain []string) {
		ck := fmt.Sprintf("%d|%s", kind, detail)
		if _, have := causes[ck]; !have {
			causes[ck] = cause{kind: kind, detail: detail, chain: chain}
		}
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		s := reg.sums[cur.key]
		if s == nil {
			addCause(effUnknownCall, cur.key, cur.chain)
			continue
		}
		for _, e := range s.effects {
			addCause(e.kind, e.detail, cur.chain)
		}
		edges := make([]calleeEdge, len(s.callees))
		copy(edges, s.callees)
		sort.Slice(edges, func(i, j int) bool { return edges[i].key < edges[j].key })
		for _, e := range edges {
			if visited[e.key] {
				continue
			}
			visited[e.key] = true
			if e.key != root.key && reg.funcs[e.key] != nil {
				continue // trusted annotated boundary
			}
			name := e.key
			if cs := reg.sums[e.key]; cs != nil {
				name = cs.name
			}
			queue = append(queue, item{key: e.key, chain: appendChain(cur.chain, name)})
		}
	}

	subject := subjectOf(ann)
	list := make([]cause, 0, len(causes))
	for _, c := range causes {
		list = append(list, c)
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].kind != list[j].kind {
			return list[i].kind < list[j].kind
		}
		return list[i].detail < list[j].detail
	})
	for _, c := range list {
		reg.report(ann.pkg, ann.pos, "%s %s", subject, causeText(c))
	}
	// One diagnostic per mutated parameter: the ""-field entry (whole
	// parameter) sorts first and wins over per-field entries.
	seenParam := map[int]bool{}
	for _, mk := range sortedMutKeys(root.allMutates) {
		if seenParam[mk.param] {
			continue
		}
		seenParam[mk.param] = true
		m := root.allMutates[mk]
		via := ""
		if m.via != "" {
			via = " (via " + m.via + ")"
		}
		reg.report(ann.pkg, ann.pos,
			"%s mutates cache-key argument %q%s; callers' inputs must stay intact for the key to be stable",
			subject, m.name, via)
	}
}

func subjectOf(ann *funcAnn) string {
	if ann.kind == annStage {
		return fmt.Sprintf("stage %q (%s)", ann.stage, ann.name)
	}
	return fmt.Sprintf("pure function %s", ann.name)
}

func causeText(c cause) string {
	via := ""
	if len(c.chain) > 0 {
		via = " (via " + strings.Join(c.chain, " → ") + ")"
	}
	switch c.kind {
	case effGlobalWrite:
		return fmt.Sprintf("writes package-level var %s%s; a cacheable stage must not mutate package state", c.detail, via)
	case effGlobalRead:
		return fmt.Sprintf("reads package-level var %s, which is written elsewhere%s; mutable-global reads make cached results stale", c.detail, via)
	case effWallClock:
		return fmt.Sprintf("reads the wall clock (%s)%s; cached replay would freeze time-dependent results", c.detail, via)
	case effGlobalRand:
		return fmt.Sprintf("draws from the global rand stream (%s)%s; seed an explicit generator from the cache key instead", c.detail, via)
	case effIO:
		return fmt.Sprintf("performs I/O (%s)%s; a cacheable stage must be a pure function of its arguments", c.detail, via)
	case effDynamic:
		return fmt.Sprintf("calls through %s, a function value not covered by a // pure: contract type%s; the callee cannot be part of the cache key", c.detail, via)
	default:
		return fmt.Sprintf("calls %s, which is outside this lint batch%s; run slltlint over the whole module to verify it", c.detail, via)
	}
}

func appendChain(chain []string, name string) []string {
	out := make([]string, 0, len(chain)+1)
	out = append(out, chain...)
	return append(out, name)
}

func sortedMutKeys(m map[mutKey]mutation) []mutKey {
	out := make([]mutKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].param != out[j].param {
			return out[i].param < out[j].param
		}
		return out[i].field < out[j].field
	})
	return out
}
