package stagepure

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"sllt/internal/analysis"
)

// The annotation grammar. A directive is a doc-comment line on a function,
// method or named function type:
//
//	// stage: <name>
//
// declares a flow-stage function: a cacheable boundary whose result must be
// a pure function of its arguments (the cache key). The name is the stage's
// identity in cache keys and reports (e.g. "partition", "timing").
//
//	// pure:
//	// pure: <note>
//
// on a function or method asserts purity without declaring a stage; the
// analyzer verifies it exactly like a stage, and annotated callees are
// trusted boundaries (a caller's check stops at them — each contract is
// verified once, where it is declared).
//
//	// pure: contract
//
// on a named function type (e.g. cts.TopoBuilder) declares that every value
// of that type must be pure. Dynamic calls through such a type are trusted;
// the functions assigned to it carry their own // pure: annotations, which
// is where the contract is enforced.
const (
	stagePrefix = "stage:"
	purePrefix  = "pure:"
)

type annKind int

const (
	annNone annKind = iota
	annPure
	annStage
)

// funcAnn is one annotated function: the machine-checked contract site.
type funcAnn struct {
	kind  annKind
	stage string // stage name, "" for pure
	key   string // symbol key, see analysis.SymKey
	name  string // display name (Recv.Name or Name)
	pos   token.Pos
	pkg   string // defining package import path
}

// annDiag is an annotation-site problem, reported when the owning package's
// pass runs.
type annDiag struct {
	pos token.Pos
	msg string
}

// registry holds the annotation set and analysis results of one Run batch,
// keyed by stable symbol strings (see unitflow's registry for the rationale:
// string keys are identity-free across packages).
type registry struct {
	funcs     map[string]*funcAnn  // annotated functions by key
	pureTypes map[string]bool      // named func types declared // pure: contract
	diags     map[string][]annDiag // final diagnostics by package import path
	sums      map[string]*summary  // every function's effect summary
	batch     map[string]bool      // import paths loaded from source this run
	mutGlobal map[string]token.Pos // package-level vars written outside their declaration/init
	modPrefix string               // module path prefix ("sllt/"): module calls outside the batch are unverifiable
}

func newRegistry() *registry {
	return &registry{
		funcs:     make(map[string]*funcAnn),
		pureTypes: make(map[string]bool),
		diags:     make(map[string][]annDiag),
		sums:      make(map[string]*summary),
		batch:     make(map[string]bool),
		mutGlobal: make(map[string]token.Pos),
	}
}

func (r *registry) report(pkg string, pos token.Pos, format string, args ...any) {
	r.diags[pkg] = append(r.diags[pkg], annDiag{pos, fmt.Sprintf(format, args...)})
}

// directiveIn extracts the first stage:/pure: directive from the comment
// group. The payload is cut at any embedded "//" so fixture want comments
// can share the line.
func directiveIn(g *ast.CommentGroup) (kind annKind, payload string, ok bool) {
	if g == nil {
		return annNone, "", false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		var k annKind
		switch {
		case strings.HasPrefix(text, stagePrefix):
			k, text = annStage, strings.TrimPrefix(text, stagePrefix)
		case strings.HasPrefix(text, purePrefix):
			k, text = annPure, strings.TrimPrefix(text, purePrefix)
		default:
			continue
		}
		text = strings.TrimSpace(text)
		if i := strings.Index(text, "//"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		return k, text, true
	}
	return annNone, "", false
}

// collectAnnotations scans one package for stage:/pure: directives on
// function declarations and named function types.
func collectAnnotations(pkg *analysis.Package, reg *registry) {
	path := pkg.ImportPath
	for _, f := range pkg.Files {
		if analysis.SkipFile(pkg.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				kind, payload, ok := directiveIn(d.Doc)
				if !ok {
					continue
				}
				if kind == annStage && payload == "" {
					reg.report(path, d.Name.Pos(), "stage annotation on %s needs a name: // stage: <name>", d.Name.Name)
					continue
				}
				if d.Body == nil {
					reg.report(path, d.Name.Pos(), "%s annotation on bodyless declaration %s cannot be verified", annWord(kind), d.Name.Name)
					continue
				}
				key := analysis.SymKey(path, d)
				reg.funcs[key] = &funcAnn{
					kind: kind, stage: payload, key: key,
					name: analysis.DisplayName(d), pos: d.Name.Pos(), pkg: path,
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					kind, _, ok := directiveIn(doc)
					if !ok {
						continue
					}
					if kind != annPure {
						reg.report(path, ts.Name.Pos(), "stage annotation is for functions; use // pure: contract on type %s", ts.Name.Name)
						continue
					}
					if _, isFunc := ts.Type.(*ast.FuncType); !isFunc {
						reg.report(path, ts.Name.Pos(), "pure annotation on type %s, which is not a function type", ts.Name.Name)
						continue
					}
					reg.pureTypes[path+"."+ts.Name.Name] = true
				}
			}
		}
	}
}

func annWord(k annKind) string {
	if k == annStage {
		return "stage"
	}
	return "pure"
}
