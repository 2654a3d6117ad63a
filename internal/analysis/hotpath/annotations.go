package hotpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"

	"sllt/internal/analysis"
)

// The annotation grammar. A directive is a doc-comment line on a function or
// method declaration:
//
//	// hot:
//	// hot: <note>
//
// declares a hot kernel: code on the flow's per-sink or per-candidate scaling
// path. Setup work (building a grid, sizing scratch) may allocate, but the
// function's loops — and any callback literal it hands to another function,
// which is presumed to run per element — must not: every allocation source
// inside loop context is flagged, as is any loop-context call into a function
// that is neither hot-annotated, proven allocation-free, nor exempt.
//
//	// hot: alloc-free
//	// hot: alloc-free <note>
//
// declares the strict tier: the whole body must be free of allocation
// sources, loop or not, and every resolved callee must itself be alloc-free —
// annotated as such, or proven by the interprocedural summary fixpoint. Each
// alloc-free annotation must be pinned by an AllocsPerRun==0 guard entry in
// the owning package's hot_guard_test.go (the guard-coverage meta-test
// enforces the pairing, so the static contract and the runtime guard cannot
// drift apart).
//
// One deliberate carve-out in both tiers: append whose destination has
// capacity provenance — backing resliced from a pool or an existing array,
// caller-provided memory reached through a parameter, or a make with a real
// size — is amortized-free and allowed; the runtime guards catch residual
// growth. append onto a fresh zero-capacity slice is flagged.
const hotPrefix = "hot:"

// allocFreeWord is the payload keyword selecting the strict tier.
const allocFreeWord = "alloc-free"

type annTier int

const (
	tierNone annTier = iota
	tierHot
	tierAllocFree
)

// funcAnn is one annotated function: the machine-checked contract site.
type funcAnn struct {
	tier annTier
	key  string // symbol key, see analysis.SymKey
	name string // display name (Recv.Name or Name)
	pos  token.Pos
	pkg  string // defining package import path

	// Body extent, used by the escape cross-check to decide which compiler
	// diagnostics fall inside an alloc-free contract.
	file               *token.File
	startLine, endLine int
}

// annDiag is a finding, reported when the owning package's pass runs.
type annDiag struct {
	pos token.Pos
	msg string
}

// registry holds the annotation set and analysis results of one Run batch,
// keyed by stable symbol strings ("pkg/path.Recv.Name").
type registry struct {
	funcs     map[string]*funcAnn  // annotated functions by key
	diags     map[string][]annDiag // final diagnostics by package import path
	sums      map[string]*summary  // every function's allocation summary
	batch     map[string]bool      // import paths loaded from source this run
	modPrefix string               // module path prefix ("sllt/")
	modDir    string               // module root directory (escape cross-check cwd)
	escapes   []escDiag            // parsed -gcflags=-m diagnostics (escape mode)
}

func newRegistry() *registry {
	return &registry{
		funcs: make(map[string]*funcAnn),
		diags: make(map[string][]annDiag),
		sums:  make(map[string]*summary),
		batch: make(map[string]bool),
	}
}

func (r *registry) report(pkg string, pos token.Pos, format string, args ...any) {
	r.diags[pkg] = append(r.diags[pkg], annDiag{pos, fmt.Sprintf(format, args...)})
}

// directiveIn extracts the first hot: directive from the comment group. The
// payload is cut at any embedded "//" so fixture want comments can share the
// line.
func directiveIn(g *ast.CommentGroup) (tier annTier, ok bool) {
	if g == nil {
		return tierNone, false
	}
	for _, c := range g.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if !strings.HasPrefix(text, hotPrefix) {
			continue
		}
		text = strings.TrimSpace(strings.TrimPrefix(text, hotPrefix))
		if i := strings.Index(text, "//"); i >= 0 {
			text = strings.TrimSpace(text[:i])
		}
		if text == allocFreeWord || strings.HasPrefix(text, allocFreeWord+" ") {
			return tierAllocFree, true
		}
		return tierHot, true
	}
	return tierNone, false
}

// collectAnnotations scans one package for hot: directives on function
// declarations.
func collectAnnotations(pkg *analysis.Package, reg *registry) {
	path := pkg.ImportPath
	for _, f := range pkg.Files {
		if analysis.SkipFile(pkg.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			tier, ok := directiveIn(fd.Doc)
			if !ok {
				continue
			}
			if fd.Body == nil {
				reg.report(path, fd.Name.Pos(), "hot annotation on bodyless declaration %s cannot be verified", fd.Name.Name)
				continue
			}
			tf := pkg.Fset.File(fd.Pos())
			key := analysis.SymKey(path, fd)
			reg.funcs[key] = &funcAnn{
				tier: tier, key: key,
				name: analysis.DisplayName(fd), pos: fd.Name.Pos(), pkg: path,
				file:      tf,
				startLine: pkg.Fset.Position(fd.Pos()).Line,
				endLine:   pkg.Fset.Position(fd.End()).Line,
			}
		}
	}
}

func tierWord(t annTier) string {
	if t == tierAllocFree {
		return "alloc-free kernel"
	}
	return "hot kernel"
}
