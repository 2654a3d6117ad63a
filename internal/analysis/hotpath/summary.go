package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sllt/internal/analysis"
)

// obsPath is the observability package: calls into it are exempt by design —
// the counters are atomic adds on caller-owned memory, allocation-free in
// steady state (the grid's zero-alloc guard runs with counters attached).
const obsPath = "sllt/internal/obs"

// exemptPkg reports whether calls into path are exempt from the allocation
// rules. sync and sync/atomic are exempt for the same reason they are the
// fix: pool Get/Put traffic is the steady-state-free discipline this
// analyzer pushes kernels toward (a cold pool's New still allocates — the
// AllocsPerRun guards measure the warm pool, which is the contract).
func exemptPkg(path string) bool {
	return path == obsPath || path == "sync" || path == "sync/atomic"
}

// A siteKind classifies one direct allocation source.
type siteKind int

const (
	siteMake      siteKind = iota // make(slice/map/chan)
	siteNew                       // new(T)
	siteLit                       // heap-bound composite literal (slice/map literal, &T{})
	siteAppend                    // append without capacity provenance
	siteBox                       // interface boxing at a call site
	siteConstruct                 // fmt/errors/strconv construction
	siteConv                      // string <-> []byte/[]rune conversion
	siteStdlib                    // stdlib call off the alloc-free allowlist
	siteModule                    // module call outside the lint batch
	siteIface                     // call through an interface method
	siteDynamic                   // call through a package-level func value
	siteGo                        // goroutine spawn
	siteDefer                     // defer inside a loop
	siteClosure                   // capturing function literal
)

// cleanliness reports whether a site kind makes its function dirty for the
// interprocedural fixpoint. Capturing closures are excluded: a closure that
// never escapes (created once, called locally or passed to a non-leaking
// callee) is stack-allocated, and counting every capture would poison most
// helper summaries. Closures are still reported inside annotated bodies,
// where the escape cross-check can confirm or clear them.
func cleanliness(k siteKind) bool { return k != siteClosure }

// heuristic site kinds are the ones the analyzer cannot decide alone — the
// compiler's escape analysis may prove them stack-allocated (a constant-size
// make, a literal that never leaves the frame, a closure that is called and
// dropped, a small string conversion). The escape cross-check confirms,
// clears, or confidence-tiers them. The remaining kinds are policy, not
// escape facts: append growth is amortized and invisible to -m, fmt/errors
// allocate internally, and the call-classification kinds are about
// verifiability.
func heuristic(k siteKind) bool {
	switch k {
	case siteMake, siteNew, siteLit, siteBox, siteClosure, siteConv:
		return true
	}
	return false
}

// An allocSite is one direct allocation source observed in a function body.
type allocSite struct {
	kind   siteKind
	detail string
	pos    token.Pos
	inLoop bool
}

// A callEdge is a resolved call to another in-batch function.
type callEdge struct {
	key    string
	pos    token.Pos
	inLoop bool
}

// summary is one function's allocation-relevant behavior.
type summary struct {
	key, name, pkg string
	pos            token.Pos
	sites          []allocSite
	callees        []callEdge
}

// fctx is the per-function collection context.
type fctx struct {
	pkg *analysis.Package
	p   *analysis.Pass // type-info shim for the shared Pass helpers
	reg *registry
	sum *summary
	fd  *ast.FuncDecl

	// loops holds the position ranges that count as loop context: for/range
	// bodies, plus any function literal passed as a call argument — a
	// callback handed to another function (parallel.ForEach, tree.Walk,
	// sort.Slice) is presumed to run once per element.
	loops []posRange

	// params holds parameter and receiver objects: appends into memory
	// reached through them have caller-provided capacity provenance, and
	// dynamic calls through them are caller-accounted.
	params map[types.Object]bool

	// provCap marks locals whose backing has capacity provenance: resliced
	// from existing or pooled memory, derived from a parameter, or made with
	// a real size. Appending to them is amortized-free.
	provCap map[types.Object]bool
}

type posRange struct{ lo, hi token.Pos }

func (c *fctx) inLoop(pos token.Pos) bool {
	for _, r := range c.loops {
		if pos >= r.lo && pos < r.hi {
			return true
		}
	}
	return false
}

// collectSummaries builds a summary for every function declaration in pkg.
func collectSummaries(pkg *analysis.Package, reg *registry) {
	shim := &analysis.Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo}
	for _, f := range pkg.Files {
		if analysis.SkipFile(pkg.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &fctx{
				pkg: pkg,
				p:   shim,
				reg: reg,
				fd:  fd,
				sum: &summary{
					key:  analysis.SymKey(pkg.ImportPath, fd),
					name: analysis.DisplayName(fd),
					pkg:  pkg.ImportPath,
					pos:  fd.Name.Pos(),
				},
				params:  map[types.Object]bool{},
				provCap: map[types.Object]bool{},
			}
			c.bindParams(fd)
			c.loopRanges(fd.Body)
			// Two provenance passes so capacity facts established later in
			// source order (loop-carried scratch) reach earlier appends.
			c.provenancePass(fd.Body)
			c.provenancePass(fd.Body)
			c.sitePass(fd.Body)
			reg.sums[c.sum.key] = c.sum
		}
	}
}

func (c *fctx) bindParams(fd *ast.FuncDecl) {
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := c.pkg.TypesInfo.Defs[name]; obj != nil {
					c.params[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
}

// loopRanges collects the loop-context position ranges of the body.
func (c *fctx) loopRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ForStmt:
			c.loops = append(c.loops, posRange{s.Body.Pos(), s.Body.End()})
		case *ast.RangeStmt:
			c.loops = append(c.loops, posRange{s.Body.Pos(), s.Body.End()})
		case *ast.CallExpr:
			for _, arg := range s.Args {
				if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					c.loops = append(c.loops, posRange{fl.Body.Pos(), fl.Body.End()})
				}
			}
		}
		return true
	})
}

// ---- capacity provenance ----

// provenancePass records which locals hold slices with capacity provenance.
func (c *fctx) provenancePass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := c.objOf(id)
				if obj == nil || c.params[obj] {
					continue
				}
				if c.provenanceOf(s.Rhs[i]) {
					c.provCap[obj] = true
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				obj := c.pkg.TypesInfo.Defs[name]
				if obj == nil || i >= len(s.Values) {
					continue
				}
				if c.provenanceOf(s.Values[i]) {
					c.provCap[obj] = true
				}
			}
		}
		return true
	})
}

// provenanceOf reports whether e evaluates to backing with capacity
// provenance: memory that already exists (a reslice, a pool entry, anything
// reached through a parameter) or was sized on purpose (make with a nonzero
// length or capacity). Appends onto such backing are amortized-free; the
// AllocsPerRun guards catch residual growth at runtime.
func (c *fctx) provenanceOf(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.SliceExpr:
		return true // reslicing shares existing backing
	case *ast.StarExpr:
		return c.provenanceOf(e.X)
	case *ast.TypeAssertExpr:
		return c.provenanceOf(e.X)
	case *ast.Ident:
		obj := c.objOf(e)
		if obj == nil {
			return false
		}
		return c.params[obj] || c.provCap[obj]
	case *ast.SelectorExpr:
		// h.buf and deeper selections: provenance of the root object.
		root := e.X
		for {
			switch x := ast.Unparen(root).(type) {
			case *ast.SelectorExpr:
				root = x.X
				continue
			case *ast.StarExpr:
				root = x.X
				continue
			}
			break
		}
		if id, ok := ast.Unparen(root).(*ast.Ident); ok {
			if obj := c.objOf(id); obj != nil {
				return c.params[obj] || c.provCap[obj]
			}
		}
		return false
	case *ast.CallExpr:
		fun := ast.Unparen(e.Fun)
		if id, ok := fun.(*ast.Ident); ok {
			if b, ok := c.pkg.TypesInfo.Uses[id].(*types.Builtin); ok {
				switch b.Name() {
				case "append":
					if len(e.Args) > 0 {
						return c.provenanceOf(e.Args[0]) // growth keeps the origin's provenance
					}
				case "make":
					// make([]T, n) and make([]T, n, c) carry provenance unless
					// the effective capacity is a literal zero.
					if len(e.Args) >= 2 {
						capArg := e.Args[len(e.Args)-1]
						if lit, ok := ast.Unparen(capArg).(*ast.BasicLit); ok && lit.Value == "0" {
							return false
						}
						return true
					}
				}
				return false
			}
		}
		// sync.Pool.Get hands back recycled backing.
		if fn := c.resolvedFunc(fun); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "sync" && fn.Name() == "Get" {
			return true
		}
		return false
	}
	return false
}

// ---- site pass ----

func (c *fctx) site(kind siteKind, pos token.Pos, detail string) {
	c.sum.sites = append(c.sum.sites, allocSite{kind: kind, detail: detail, pos: pos, inLoop: c.inLoop(pos)})
}

// sitePass walks the body once, recording allocation sources and callee
// edges. Function literal bodies are part of the enclosing function's
// summary (with callback literals contributing loop context).
func (c *fctx) sitePass(body *ast.BlockStmt) {
	handledLit := map[*ast.CompositeLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			c.handleCall(s)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				if cl, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					handledLit[cl] = true
					c.site(siteLit, s.Pos(), "&"+c.typeStr(c.p.TypeOf(cl))+"{…}")
				}
			}
		case *ast.CompositeLit:
			if handledLit[s] {
				return true
			}
			t := c.p.TypeOf(s)
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Slice:
				if len(s.Elts) > 0 { // empty slice literals have no backing
					c.site(siteLit, s.Pos(), c.typeStr(t)+"{…}")
				}
			case *types.Map:
				c.site(siteLit, s.Pos(), c.typeStr(t)+"{…}")
			}
		case *ast.FuncLit:
			if name, ok := c.captures(s); ok {
				c.site(siteClosure, s.Pos(), name)
			}
		case *ast.GoStmt:
			c.site(siteGo, s.Pos(), "")
		case *ast.DeferStmt:
			if c.inLoop(s.Pos()) {
				c.site(siteDefer, s.Pos(), "")
			}
		}
		return true
	})
}

// captures reports whether fl captures a variable of the enclosing function,
// returning one captured name for the diagnostic.
func (c *fctx) captures(fl *ast.FuncLit) (string, bool) {
	found := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pkg.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside this
		// literal. Package-level vars and fields don't count.
		if v.Pos() >= c.fd.Pos() && v.Pos() < c.fd.End() &&
			!(v.Pos() >= fl.Pos() && v.Pos() < fl.End()) {
			found = v.Name()
			return false
		}
		return true
	})
	return found, found != ""
}

// resolvedFunc resolves a call/reference expression to its *types.Func.
func (c *fctx) resolvedFunc(fun ast.Expr) *types.Func {
	switch f := ast.Unparen(fun).(type) {
	case *ast.Ident:
		fn, _ := c.pkg.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := c.pkg.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// handleCall classifies one call expression.
func (c *fctx) handleCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := c.pkg.TypesInfo.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && allocConv(c.p.TypeOf(call), c.p.TypeOf(call.Args[0])) {
			c.site(siteConv, call.Pos(), c.typeStr(c.p.TypeOf(call))+"("+types.ExprString(call.Args[0])+")")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pkg.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.site(siteMake, call.Pos(), types.ExprString(call))
			case "new":
				c.site(siteNew, call.Pos(), types.ExprString(call))
			case "append":
				if len(call.Args) > 0 && !c.provenanceOf(call.Args[0]) {
					c.site(siteAppend, call.Pos(), types.ExprString(call.Args[0]))
				}
			}
			return
		}
	}

	fn := c.resolvedFunc(fun)
	if fn == nil {
		c.dynamicCall(fun)
		return
	}
	fn = fn.Origin()
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe scope (error.Error)
	}
	path := pkg.Path()
	if exemptPkg(path) {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			c.site(siteIface, fun.Pos(), path+"."+fn.Name())
			return
		}
	}
	display := path + "." + fn.Name()
	switch {
	case c.reg.batch[path]:
		c.sum.callees = append(c.sum.callees, callEdge{
			key: analysis.FuncKey(fn), pos: fun.Pos(), inLoop: c.inLoop(fun.Pos()),
		})
	case strings.HasPrefix(path, c.reg.modPrefix):
		c.site(siteModule, fun.Pos(), display)
	default:
		switch classifyStdlib(path, fn.Name()) {
		case stdAllow:
		case stdConstruct:
			c.site(siteConstruct, fun.Pos(), display)
			return // construction subsumes per-argument boxing
		default:
			c.site(siteStdlib, fun.Pos(), display)
		}
	}
	c.checkBoxing(call, sig, display)
}

// checkBoxing flags concrete values boxed into interface parameters at the
// call site. Reference-shaped values (pointers, chans, maps, funcs) fit the
// interface word without allocating and are not flagged.
func (c *fctx) checkBoxing(call *ast.CallExpr, sig *types.Signature, callee string) {
	if sig == nil {
		return
	}
	np := sig.Params().Len()
	if np == 0 {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			break
		}
		pt := sig.Params().At(pi).Type()
		if sig.Variadic() && pi == np-1 && !call.Ellipsis.IsValid() {
			if sl, ok := pt.Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := c.p.TypeOf(arg)
		if at == nil || boxFree(at) {
			continue
		}
		c.site(siteBox, arg.Pos(), types.ExprString(arg)+" (type "+c.typeStr(at)+") into interface at call to "+callee)
	}
}

// boxFree reports whether values of t convert to an interface without
// allocating: interfaces themselves, untyped nil, and single-word reference
// types whose representation is already a pointer.
func boxFree(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UntypedNil || u.Kind() == types.UnsafePointer
	}
	return false
}

// allocConv reports whether a conversion from 'from' to 'to' copies bytes.
func allocConv(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// dynamicCall handles calls through function values. Values rooted in locals
// or parameters are caller-accounted (the closure's own allocation behavior
// was summarized where it was created — the parallel.ForEach shape); only
// package-level func values are unverifiable.
func (c *fctx) dynamicCall(fun ast.Expr) {
	root := ast.Unparen(fun)
	for {
		switch x := root.(type) {
		case *ast.SelectorExpr:
			root = ast.Unparen(x.X)
			continue
		case *ast.IndexExpr:
			root = ast.Unparen(x.X)
			continue
		case *ast.StarExpr:
			root = ast.Unparen(x.X)
			continue
		}
		break
	}
	if id, ok := root.(*ast.Ident); ok {
		if key := analysis.GlobalKey(c.objOf(id)); key != "" {
			c.site(siteDynamic, fun.Pos(), key)
		}
	}
}

func (c *fctx) objOf(id *ast.Ident) types.Object {
	if o := c.pkg.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pkg.TypesInfo.Defs[id]
}

func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// typeStr renders t with same-package names unqualified.
func (c *fctx) typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, types.RelativeTo(c.pkg.Types))
}

// ---- stdlib classification ----

type stdClass int

const (
	stdAllow stdClass = iota
	stdConstruct
	stdUnknown
)

// allowPkgs never allocate on any path a kernel would take. encoding/binary
// is the byte-order arithmetic the codecs use (binary.Write, which takes a
// writer, is not hot-kernel code); sync/atomic and sync are handled by
// exemptPkg before classification.
var allowPkgs = map[string]bool{
	"math":            true,
	"math/bits":       true,
	"math/cmplx":      true,
	"cmp":             true,
	"unicode":         true,
	"unicode/utf8":    true,
	"encoding/binary": true,
}

// allowFuncs are individually vetted alloc-free stdlib functions from
// packages that also contain allocating ones.
var allowFuncs = map[string]bool{
	"sort.Search":           true,
	"sort.SearchInts":       true,
	"sort.SearchFloat64s":   true,
	"crypto/sha256.Sum256":  true,
	"strings.Compare":       true,
	"strings.Contains":      true,
	"strings.Count":         true,
	"strings.EqualFold":     true,
	"strings.HasPrefix":     true,
	"strings.HasSuffix":     true,
	"strings.Index":         true,
	"strings.IndexByte":     true,
	"strings.LastIndexByte": true,
	"bytes.Compare":         true,
	"bytes.Contains":        true,
	"bytes.Equal":           true,
	"bytes.HasPrefix":       true,
	"bytes.HasSuffix":       true,
	"bytes.Index":           true,
	"bytes.IndexByte":       true,
	// strconv's Append* formatters write into the caller's slice; they
	// allocate only when the destination lacks capacity, which the
	// param-rooted append carve-out already holds the caller to.
	"strconv.AppendInt":   true,
	"strconv.AppendUint":  true,
	"strconv.AppendFloat": true,
	"slices.Sort":         true,
	"slices.SortFunc":     true,
	"slices.BinarySearch": true,
	"slices.Contains":     true,
	"slices.Index":        true,
	"slices.Min":          true,
	"slices.Max":          true,
	"slices.Reverse":      true,
}

// constructPkgs build strings, errors or formatted values on the heap by
// design.
var constructPkgs = map[string]bool{"fmt": true, "errors": true, "strconv": true}

func classifyStdlib(path, name string) stdClass {
	switch {
	case allowPkgs[path]:
		return stdAllow
	case allowFuncs[path+"."+name]:
		return stdAllow
	case constructPkgs[path]:
		return stdConstruct
	}
	return stdUnknown
}
