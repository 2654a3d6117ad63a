package stagepure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sllt/internal/analysis"
)

// obsPath is the observability package: calls into it are exempt from the
// purity rules by design. The recorder observes, it never feeds back into
// any algorithm decision (a property the obs-on/obs-off byte-identical
// golden tests enforce at runtime), so spans, counters and QoR writes do
// not make a stage uncacheable.
const obsPath = "sllt/internal/obs"

// cachePath is the content-addressed stage store: calls into it are exempt
// like obs calls, but for the dual reason — the store only ever replays the
// outputs of stages this analyzer verified pure, so a hit is observationally
// identical to recomputing (a property the cached/uncached byte-identity
// tests in internal/cts enforce at runtime). The exemption covers the store
// traffic itself (lookup, admission, disk tiers); it does not bless reading
// any other mutable state inside a stage.
const cachePath = "sllt/internal/cache"

// exemptPkg reports whether path is exempt from the purity rules.
func exemptPkg(path string) bool { return path == obsPath || path == cachePath }

// An effectKind classifies one direct impurity.
type effectKind int

const (
	effGlobalWrite effectKind = iota
	effGlobalRead
	effWallClock
	effGlobalRand
	effIO
	effDynamic
	effUnknownCall
)

// An effect is one direct impurity observed in a function body.
type effect struct {
	kind   effectKind
	detail string
	pos    token.Pos
}

// A calleeEdge is a static reference to another in-batch function (called,
// deferred, spawned, or passed as a value — all of which may execute it).
type calleeEdge struct {
	key string
	pos token.Pos
}

// A mutation records a write that reaches memory owned by one of the
// function's parameters.
type mutation struct {
	name string // parameter name in the reporting function
	pos  token.Pos
	via  string // display chain for transitive mutations, "" when direct
}

// A mutKey identifies one mutated region: a parameter and, when known, the
// first field selected from it on the write path. Field granularity is what
// lets the fixpoint keep "writes st.assign (a private copy)" apart from
// "writes st.pts (a retained caller slice)".
type mutKey struct {
	param int
	field string // "" when the parameter itself (or an unknown part) is written
}

// A flowEdge records a call argument that aliases a caller parameter: if
// the callee mutates its parameter, the caller's parameter is mutated too.
// calleeField narrows the edge to one field of the callee's parameter (the
// argument was a tracked struct whose field f held the alias); callerField
// records which field of the caller's parameter is reached.
type flowEdge struct {
	calleeKey   string
	calleeParam int    // flat index in the callee (receiver first)
	calleeField string // "" = the whole parameter aliases the caller's memory
	callerParam int    // flat index in the caller
	callerField string // first-hop field of the caller parameter, "" = itself
	pos         token.Pos
}

// summary is one function's purity-relevant behavior.
type summary struct {
	key, name, pkg string
	pos            token.Pos
	effects        []effect
	callees        []calleeEdge
	flows          []flowEdge
	mutates        map[mutKey]mutation // direct parameter mutations
	allMutates     map[mutKey]mutation // after interprocedural fixpoint
	paramNames     []string            // flat: receiver (if any) first
	paramExempt    []bool              // obs-typed parameters are observers, not key inputs
	annotated      bool
}

// paramSet is a bitset over flat parameter indices (parameters beyond 64
// are untracked).
type paramSet uint64

func (s paramSet) has(i int) bool { return i < 64 && s&(1<<uint(i)) != 0 }
func bit(i int) paramSet {
	if i >= 64 {
		return 0
	}
	return 1 << uint(i)
}

// Taint kinds: tValue is a local copy that may carry references into
// caller-owned memory (a struct with pointer fields); tAlias is a reference
// whose pointees are caller-owned (writes through it mutate the caller).
const (
	tNone = iota
	tValue
	tAlias
)

// taint tracks which parameters and package-level vars a local value
// derives from.
//
// field is first-hop provenance: when a value was selected off a parameter
// (p.Stats, st.pts), field names which part of the parameter it came from,
// so a later write through it blames (param, field) rather than the whole
// parameter.
//
// fields, when non-nil, marks the value as a tracked fresh struct (built by
// a composite literal in this body) whose per-field taints are known
// individually. A struct that retains a caller slice read-only in one field
// while mutating a private copy in another then stays innocent. A fields
// container carries no flat params/globals of its own.
type taint struct {
	kind    int
	params  paramSet
	globals map[string]bool
	field   string
	fields  map[string]taint
}

func (t taint) none() bool { return t.kind == tNone }

func mergeTaint(a, b taint) taint {
	if a.none() {
		return b
	}
	if b.none() {
		return a
	}
	if a.fields != nil && b.fields != nil {
		out := taint{kind: a.kind, fields: map[string]taint{}}
		if b.kind > out.kind {
			out.kind = b.kind
		}
		for k, t := range a.fields {
			out.fields[k] = t
		}
		for k, t := range b.fields {
			out.fields[k] = mergeTaint(out.fields[k], t)
		}
		return out
	}
	a, b = flatten(a), flatten(b)
	out := taint{kind: a.kind, params: a.params | b.params}
	if b.kind > out.kind {
		out.kind = b.kind
	}
	if a.field == b.field {
		out.field = a.field // diverging provenance degrades to "the whole parameter"
	}
	if a.globals != nil || b.globals != nil {
		out.globals = map[string]bool{}
		for g := range a.globals {
			out.globals[g] = true
		}
		for g := range b.globals {
			out.globals[g] = true
		}
	}
	return out
}

// flatten collapses a fields container into ordinary taint: the union of
// every field's origins at value level (the container itself is a fresh
// struct, so it is not an alias even if a field holds one).
func flatten(t taint) taint {
	if t.fields == nil {
		return t
	}
	out := taint{kind: t.kind, params: t.params, field: t.field}
	for g := range t.globals {
		if out.globals == nil {
			out.globals = map[string]bool{}
		}
		out.globals[g] = true
	}
	for _, ft := range t.fields {
		f := flatten(ft)
		out.params |= f.params
		for g := range f.globals {
			if out.globals == nil {
				out.globals = map[string]bool{}
			}
			out.globals[g] = true
		}
	}
	if out.params == 0 && len(out.globals) == 0 {
		return taint{}
	}
	if out.kind < tValue {
		out.kind = tValue
	}
	return out
}

// withKind adjusts the taint kind, keeping the origin sets.
func (t taint) withKind(k int) taint {
	if t.none() {
		return t
	}
	t.kind = k
	return t
}

// fctx is the per-function collection context.
type fctx struct {
	pkg      *analysis.Package
	p        *analysis.Pass // type-info shim for the shared Pass helpers
	reg      *registry
	sum      *summary
	paramIdx map[types.Object]int
	locals   map[types.Object]taint
	// skipIdents marks identifiers already handled structurally (write
	// targets, resolved call/reference sites) so the generic use-scan does
	// not double-report them.
	skipIdents map[*ast.Ident]bool
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
			if !ok || fd.Body == nil || fd.Name.Name == "init" {
				continue
			}
			c := &fctx{
				pkg: pkg,
				p:   shim,
				reg: reg,
				sum: &summary{
					key:     analysis.SymKey(pkg.ImportPath, fd),
					name:    analysis.DisplayName(fd),
					pkg:     pkg.ImportPath,
					pos:     fd.Name.Pos(),
					mutates: map[mutKey]mutation{},
				},
				paramIdx:   map[types.Object]int{},
				locals:     map[types.Object]taint{},
				skipIdents: map[*ast.Ident]bool{},
			}
			c.sum.annotated = reg.funcs[c.sum.key] != nil
			c.bindParams(fd)
			// Two taint passes so aliases established later in source order
			// (loop-carried locals) are visible to earlier statements.
			c.taintPass(fd.Body)
			c.taintPass(fd.Body)
			c.effectPass(fd.Body)
			reg.sums[c.sum.key] = c.sum
		}
	}
}

// bindParams assigns flat indices (receiver first) and records names and
// observer exemptions.
func (c *fctx) bindParams(fd *ast.FuncDecl) {
	add := func(field *ast.Field) {
		for _, name := range field.Names {
			idx := len(c.sum.paramNames)
			c.sum.paramNames = append(c.sum.paramNames, name.Name)
			c.sum.paramExempt = append(c.sum.paramExempt, isObsType(c.pkg.TypesInfo.Defs[name]))
			if obj := c.pkg.TypesInfo.Defs[name]; obj != nil {
				c.paramIdx[obj] = idx
			}
		}
		if len(field.Names) == 0 { // unnamed parameter still occupies a slot
			c.sum.paramNames = append(c.sum.paramNames, "_")
			c.sum.paramExempt = append(c.sum.paramExempt, false)
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			add(field)
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			add(field)
		}
	}
}

// isObsType reports whether obj's type peels to a named type defined in the
// observability package.
func isObsType(obj types.Object) bool {
	if obj == nil {
		return false
	}
	t := obj.Type()
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Slice:
			t = u.Elem()
		case *types.Named:
			if p := u.Obj().Pkg(); p != nil && exemptPkg(p.Path()) {
				return true
			}
			return false
		default:
			return false
		}
	}
}

// refType reports whether values of t are references: writing through them
// reaches shared memory, and copying them copies the reference.
func refType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	}
	return false
}

// hasRefs reports whether values of t can transitively reach other memory:
// copying a value of a ref-free type (numbers, strings, flat structs and
// arrays of them) yields fully independent storage. Strings are immutable,
// so sharing their bytes cannot leak a write. Interfaces, pointers, slices,
// maps, channels and funcs all count as references.
func hasRefs(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasRefs(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return hasRefs(u.Elem())
	}
	return true
}

// ---- taint pass ----

// taintPass records, for every local, which parameters and package vars its
// value derives from. Assignments are processed in syntax order; the caller
// runs the pass twice to reach loop-carried aliases.
func (c *fctx) taintPass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				// st.f = rhs on a tracked container updates that field's
				// taint in place, preserving per-field provenance.
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && s.Tok == token.ASSIGN {
					c.assignField(sel, s, i)
					continue
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := c.objOf(id)
				if obj == nil {
					continue
				}
				if _, isParam := c.paramIdx[obj]; isParam {
					continue // parameters keep their own taint
				}
				var t taint
				if len(s.Rhs) == len(s.Lhs) {
					t = c.taintOf(s.Rhs[i])
				}
				c.locals[obj] = mergeTaint(c.locals[obj], t)
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				obj := c.pkg.TypesInfo.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				if i < len(s.Values) {
					c.locals[obj] = mergeTaint(c.locals[obj], c.taintOf(s.Values[i]))
				}
			}
		case *ast.RangeStmt:
			if s.Tok != token.DEFINE || s.Value == nil {
				return true
			}
			base := c.taintOf(s.X)
			if v, ok := ast.Unparen(s.Value).(*ast.Ident); ok && v.Name != "_" && !base.none() {
				if obj := c.pkg.TypesInfo.Defs[v]; obj != nil {
					k := tValue
					if refType(c.p.TypeOf(s.Value)) {
						k = tAlias
					}
					c.locals[obj] = mergeTaint(c.locals[obj], base.withKind(k))
				}
			}
		}
		return true
	})
}

// assignField folds `local.f = rhs` into the tracked container held by
// local, if any. Parameters and globals are untouched (the effect pass owns
// those writes); deeper selectors (st.grid.Kernel = x) land in memory the
// container already accounts for and are skipped.
func (c *fctx) assignField(sel *ast.SelectorExpr, s *ast.AssignStmt, i int) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.objOf(id)
	if obj == nil {
		return
	}
	if _, isParam := c.paramIdx[obj]; isParam {
		return
	}
	lt, ok := c.locals[obj]
	if !ok || lt.fields == nil {
		return
	}
	var t taint
	if len(s.Rhs) == len(s.Lhs) {
		t = flatten(c.taintOf(s.Rhs[i])) // field values stay flat, see structLit
	}
	lt.fields[sel.Sel.Name] = mergeTaint(lt.fields[sel.Sel.Name], t)
	c.locals[obj] = lt
}

// taintOf evaluates which caller-owned origins an expression's value can
// reach.
func (c *fctx) taintOf(e ast.Expr) taint {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.taintOf(e.X)
	case *ast.Ident:
		return c.useTaint(c.objOf(e))
	case *ast.SelectorExpr:
		// A qualified package identifier resolves like a plain ident.
		if c.p.ImportedPkgOf(e) != "" {
			return c.useTaint(c.pkg.TypesInfo.Uses[e.Sel])
		}
		return c.selectField(c.taintOf(e.X), e.Sel.Name, c.p.TypeOf(e))
	case *ast.IndexExpr:
		return c.derived(c.taintOf(e.X), c.p.TypeOf(e))
	case *ast.StarExpr:
		return c.derived(c.taintOf(e.X), c.p.TypeOf(e))
	case *ast.SliceExpr:
		return c.taintOf(e.X) // reslicing shares the backing array
	case *ast.TypeAssertExpr:
		return c.taintOf(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if _, fresh := ast.Unparen(e.X).(*ast.CompositeLit); fresh {
				// &T{...} is fresh memory carrying whatever its elements
				// reference — value-level taint, not an alias.
				return c.taintOf(e.X)
			}
			return c.taintOf(e.X).withKind(tAlias)
		}
		return taint{}
	case *ast.CompositeLit:
		// A struct literal with keyed elements becomes a tracked container:
		// each field's taint is kept separate, so writes to one field never
		// implicate the callers' memory another field retains read-only.
		if t, ok := c.structLit(e); ok {
			return t
		}
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = mergeTaint(t, c.taintOf(el).withKind(tValue))
		}
		return t
	case *ast.CallExpr:
		// append can return its first argument's backing array; conversions
		// pass the value through. Other calls' results are treated as fresh
		// (functions returning aliases of their arguments are not tracked).
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := c.pkg.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(e.Args) > 0 {
				// The result may share the first argument's backing array;
				// later arguments' elements are copied in. When the element
				// type carries no references (ints, floats, flat structs),
				// the copy severs taint entirely: append([]int(nil), xs...)
				// is a genuinely private clone of xs.
				t := c.taintOf(e.Args[0])
				var elem types.Type
				if sl, ok := c.p.TypeOf(e).Underlying().(*types.Slice); ok {
					elem = sl.Elem()
				}
				if elem == nil || hasRefs(elem) {
					for _, a := range e.Args[1:] {
						t = mergeTaint(t, c.taintOf(a).withKind(tValue))
					}
				}
				return t
			}
		}
		if tv, ok := c.pkg.TypesInfo.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.taintOf(e.Args[0])
		}
		return taint{}
	}
	return taint{}
}

// structLit builds a tracked per-field taint container for a struct
// composite literal whose elements are all keyed (the repo style). The
// container is fresh memory: an empty or untainted literal is still tracked
// so later field assignments (st.xs = xs) keep per-field provenance.
func (c *fctx) structLit(e *ast.CompositeLit) (taint, bool) {
	t := c.p.TypeOf(e)
	if t == nil {
		return taint{}, false
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return taint{}, false
	}
	fields := map[string]taint{}
	for _, el := range e.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			return taint{}, false // positional literal: fall back to merged taint
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			return taint{}, false
		}
		// Field values are stored flat (one-level sensitivity): nested
		// containers collapse here, which also keeps self-referential
		// structures from recursing without bound.
		if ft := flatten(c.taintOf(kv.Value)); !ft.none() {
			fields[key.Name] = ft
		}
	}
	return taint{kind: tValue, fields: fields}, true
}

// derived applies the selection/indexing/dereference rule: tainted bases
// yield aliases when the result is a reference, value-level taint otherwise.
func (c *fctx) derived(base taint, result types.Type) taint {
	if base.none() {
		return base
	}
	if refType(result) {
		return base.withKind(tAlias)
	}
	return base.withKind(tValue)
}

// selectField resolves base.name: a tracked container answers from its field
// map (an unset field of fresh memory is untainted); anything else derives
// from the base, recording the field as first-hop provenance when the base
// is the parameter (or global) itself.
func (c *fctx) selectField(base taint, name string, result types.Type) taint {
	if base.none() {
		return base
	}
	if base.fields != nil {
		if ft, ok := base.fields[name]; ok {
			return ft
		}
		rest := base
		rest.fields = nil
		if rest.params == 0 && len(rest.globals) == 0 {
			return taint{}
		}
		return c.derived(rest, result)
	}
	t := c.derived(base, result)
	if t.field == "" {
		t.field = name
	}
	return t
}

func (c *fctx) useTaint(obj types.Object) taint {
	if obj == nil {
		return taint{}
	}
	if idx, ok := c.paramIdx[obj]; ok {
		k := tValue
		if refType(obj.Type()) {
			k = tAlias
		}
		return taint{kind: k, params: bit(idx)}
	}
	if key := analysis.GlobalKey(obj); key != "" {
		k := tValue
		if refType(obj.Type()) {
			k = tAlias
		}
		return taint{kind: k, globals: map[string]bool{key: true}}
	}
	if t, ok := c.locals[obj]; ok {
		return t
	}
	return taint{}
}

func (c *fctx) objOf(id *ast.Ident) types.Object {
	if o := c.pkg.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pkg.TypesInfo.Defs[id]
}

// ---- effect pass ----

func (c *fctx) effect(kind effectKind, pos token.Pos, detail string) {
	c.sum.effects = append(c.sum.effects, effect{kind: kind, detail: detail, pos: pos})
}

// effectPass walks the body once, recording direct impurities, callee
// edges, parameter mutations and argument flows. Function literals are part
// of the body, so closure effects merge into this function's summary.
func (c *fctx) effectPass(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range s.Lhs {
				c.checkWriteTarget(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWriteTarget(s.X)
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				c.checkWriteTarget(s.Key)
				c.checkWriteTarget(s.Value)
			}
		case *ast.SendStmt:
			if t := c.taintOf(s.Chan); !t.none() {
				c.effect(effIO, s.Arrow, "send on a channel reaching caller or package state")
			}
		case *ast.CallExpr:
			c.handleCall(s)
		case *ast.Ident:
			c.checkUse(s)
		}
		return true
	})
}

// checkWriteTarget classifies one assignment target: writes that land in
// package-level or caller-owned memory are effects; writes to locals are
// not.
func (c *fctx) checkWriteTarget(lhs ast.Expr) {
	if lhs == nil {
		return
	}
	lhs = ast.Unparen(lhs)
	switch l := lhs.(type) {
	case *ast.Ident:
		c.skipIdents[l] = true
		if key := analysis.GlobalKey(c.objOf(l)); key != "" {
			c.effect(effGlobalWrite, l.Pos(), key)
		}
	case *ast.SelectorExpr:
		if c.p.ImportedPkgOf(l) != "" {
			c.skipIdents[l.Sel] = true
			if key := analysis.GlobalKey(c.pkg.TypesInfo.Uses[l.Sel]); key != "" {
				c.effect(effGlobalWrite, l.Pos(), key)
			}
			return
		}
		if bt := c.p.TypeOf(l.X); bt != nil && refType(bt) {
			c.blameWrite(c.taintOf(l.X), l.Sel.Pos(), l.Sel.Name, l.Sel.Name)
			return
		}
		c.checkWriteTarget(l.X)
	case *ast.IndexExpr:
		bt := c.p.TypeOf(l.X)
		if bt != nil && !refType(bt) { // array value: the cell is part of the base
			c.checkWriteTarget(l.X)
			return
		}
		c.blameWrite(c.taintOf(l.X), l.Pos(), exprName(l.X), "")
	case *ast.StarExpr:
		c.blameWrite(c.taintOf(l.X), l.Pos(), exprName(l.X), "")
	}
}

// blameWrite attributes a write through a reference to its origins. Only
// alias-level taint reaches caller memory: writes into local copies (value
// taint) stay local. The mutation is keyed by the first-hop field the alias
// was selected from (or, for a direct field write through the parameter
// itself, the written field name), so the fixpoint can tell a write into
// p.Stats apart from one into p.pts.
func (c *fctx) blameWrite(t taint, pos token.Pos, name, selField string) {
	if t.kind != tAlias {
		return
	}
	field := t.field
	if field == "" {
		field = selField
	}
	for g := range t.globals {
		c.effect(effGlobalWrite, pos, g)
	}
	for i := range c.sum.paramNames {
		if t.params.has(i) && !c.sum.paramExempt[i] {
			k := mutKey{param: i, field: field}
			if _, have := c.sum.mutates[k]; !have {
				c.sum.mutates[k] = mutation{name: c.sum.paramNames[i], pos: pos}
			}
		}
	}
}

// checkUse flags reads of mutable package-level state and records bare
// function references. Reads of vars never written outside their
// declaration are effectively constants and allowed.
func (c *fctx) checkUse(id *ast.Ident) {
	if c.skipIdents[id] {
		return
	}
	obj := c.pkg.TypesInfo.Uses[id]
	if fn, ok := obj.(*types.Func); ok {
		// A reference not in call position: the function may be invoked
		// later, so classify it like a call (without argument flows).
		c.skipIdents[id] = true
		c.funcRef(fn, nil, nil, id.Pos())
		return
	}
	key := analysis.GlobalKey(obj)
	if key == "" {
		return
	}
	if pkg := obj.Pkg(); pkg != nil && exemptPkg(pkg.Path()) {
		return
	}
	if _, mutated := c.reg.mutGlobal[key]; mutated {
		c.effect(effGlobalRead, id.Pos(), key)
		return
	}
	// Stdlib vars in denied packages (os.Stdout, ...) are I/O handles.
	if pkg := obj.Pkg(); pkg != nil && deniedPkg(pkg.Path()) {
		c.effect(effIO, id.Pos(), key)
	}
}

// handleCall classifies one call expression.
func (c *fctx) handleCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Conversions only pass values through.
	if tv, ok := c.pkg.TypesInfo.Types[fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := c.pkg.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.skipIdents[id] = true
			c.builtinCall(b.Name(), call)
			return
		}
	}
	var fn *types.Func
	var recvExpr ast.Expr
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = c.pkg.TypesInfo.Uses[f].(*types.Func)
		if fn != nil {
			c.skipIdents[f] = true
		}
	case *ast.SelectorExpr:
		fn, _ = c.pkg.TypesInfo.Uses[f.Sel].(*types.Func)
		if fn != nil {
			c.skipIdents[f.Sel] = true
		}
		if _, isSel := c.pkg.TypesInfo.Selections[f]; isSel {
			recvExpr = f.X
		}
	}
	if fn == nil {
		c.dynamicCall(fun)
		return
	}
	c.funcRef(fn, recvExpr, call, fun.Pos())
}

// funcRef handles a resolved function reference — called here (call != nil)
// or referenced as a value (call == nil; a reference may be invoked later,
// so it is classified identically, minus argument flows).
func (c *fctx) funcRef(fn *types.Func, recvExpr ast.Expr, call *ast.CallExpr, pos token.Pos) {
	fn = fn.Origin() // instantiated generics summarize as their origin
	pkg := fn.Pkg()
	if pkg == nil {
		return // universe scope: error.Error
	}
	path := pkg.Path()
	if exemptPkg(path) {
		return // observer / stage-store exemption
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			c.interfaceCall(fn, path, pos)
			return
		}
	}
	if c.reg.batch[path] {
		key := analysis.FuncKey(fn)
		c.sum.callees = append(c.sum.callees, calleeEdge{key: key, pos: pos})
		if call != nil {
			c.recordFlows(key, sig, recvExpr, call)
		}
		return
	}
	if strings.HasPrefix(path, c.reg.modPrefix) {
		c.effect(effUnknownCall, pos, path+"."+fn.Name())
		return
	}
	if eff, detail := classifyExternal(path, fn.Name(), sig); eff >= 0 {
		c.effect(eff, pos, detail)
		return
	}
	// Allowed external call; a handful of stdlib helpers still mutate
	// their first argument in place.
	if call != nil && stdlibMutatesArg0(path, fn.Name()) && len(call.Args) > 0 {
		c.blameWrite(c.taintOf(call.Args[0]), call.Args[0].Pos(), exprName(call.Args[0]), "")
	}
}

// recordFlows maps tainted call arguments onto callee parameter slots.
// Globals handed to mutating callees are not chased interprocedurally; the
// root-ident global-write scan covers the direct cases (see package doc for
// the stated gaps).
func (c *fctx) recordFlows(calleeKey string, sig *types.Signature, recvExpr ast.Expr, call *ast.CallExpr) {
	flat := 0
	if sig.Recv() != nil {
		if recvExpr != nil {
			c.flowArg(calleeKey, 0, recvExpr)
		}
		flat = 1
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			break
		}
		c.flowArg(calleeKey, flat+pi, arg)
	}
}

func (c *fctx) flowArg(calleeKey string, calleeParam int, arg ast.Expr) {
	t := c.taintOf(arg)
	if t.none() {
		return
	}
	if t.fields != nil {
		// A tracked container: one edge per field, so only callee mutations
		// of that field implicate the field's origins.
		for _, f := range analysis.SortedKeys(t.fields) {
			c.flowEdges(calleeKey, calleeParam, f, flatten(t.fields[f]), arg.Pos())
		}
		rest := t
		rest.fields = nil
		c.flowEdges(calleeKey, calleeParam, "", rest, arg.Pos())
		return
	}
	c.flowEdges(calleeKey, calleeParam, "", t, arg.Pos())
}

func (c *fctx) flowEdges(calleeKey string, calleeParam int, calleeField string, t taint, pos token.Pos) {
	if t.none() {
		return
	}
	for i := range c.sum.paramNames {
		if t.params.has(i) && !c.sum.paramExempt[i] {
			c.sum.flows = append(c.sum.flows, flowEdge{
				calleeKey: calleeKey, calleeParam: calleeParam, calleeField: calleeField,
				callerParam: i, callerField: t.field, pos: pos,
			})
		}
	}
}

// dynamicCall handles calls through function values. A value held in an
// untainted local originated from function literals or named functions seen
// in this body (whose effects and edges are already recorded), so it is
// allowed. A parameter-rooted value is allowed in unannotated helpers — the
// caller accounts for what it passes in (the parallel.ForEach shape) — but
// an annotated function may only make such calls through a named function
// type carrying a // pure: contract annotation: a raw func argument cannot
// be part of a cache key.
func (c *fctx) dynamicCall(fun ast.Expr) {
	if t := c.p.TypeOf(fun); t != nil {
		if named, ok := t.(*types.Named); ok {
			if p := named.Obj().Pkg(); p != nil && c.reg.pureTypes[p.Path()+"."+named.Obj().Name()] {
				return
			}
		}
	}
	t := c.taintOf(fun)
	if t.none() {
		return
	}
	if len(t.globals) == 0 && !c.sum.annotated {
		return // caller-accounted higher-order helper
	}
	c.effect(effDynamic, fun.Pos(), exprName(fun))
}

// builtinCall models the builtins with effects: print/println are I/O,
// copy/clear/delete mutate their first argument.
func (c *fctx) builtinCall(name string, call *ast.CallExpr) {
	switch name {
	case "print", "println":
		c.effect(effIO, call.Pos(), "builtin "+name)
	case "copy", "clear", "delete":
		if len(call.Args) > 0 {
			c.blameWrite(c.taintOf(call.Args[0]), call.Args[0].Pos(), exprName(call.Args[0]), "")
		}
	}
}

// interfaceCall classifies a method call whose receiver is an interface:
// the implementation is unresolvable, so classify by the interface's own
// package. Module interfaces get a dynamic-call effect; stdlib interfaces
// follow the same package policy as functions (io.Reader is I/O,
// fmt.Stringer is pure).
func (c *fctx) interfaceCall(fn *types.Func, path string, pos token.Pos) {
	if c.reg.batch[path] || strings.HasPrefix(path, c.reg.modPrefix) {
		c.effect(effDynamic, pos, "interface method "+fn.Name())
		return
	}
	if eff, detail := classifyExternal(path, fn.Name(), nil); eff >= 0 {
		c.effect(eff, pos, detail)
	}
}

func exprName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprName(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprName(e.X) + "[...]"
	case *ast.StarExpr:
		return exprName(e.X)
	case *ast.CallExpr:
		return exprName(e.Fun) + "(...)"
	}
	return "expression"
}

// ---- external classification ----

// deniedPkgs perform I/O or reach process state by design; any call into
// them (or read of their package vars) is impure.
var deniedPkgs = []string{
	"bufio", "database", "io", "io/fs", "io/ioutil", "log", "net",
	"os", "os/exec", "os/signal", "os/user", "plugin",
	"runtime/pprof", "runtime/trace", "syscall", "testing",
}

func deniedPkg(path string) bool {
	for _, d := range deniedPkgs {
		if path == d || strings.HasPrefix(path, d+"/") {
			return true
		}
	}
	return false
}

// wallClockFuncs in package time read the wall clock or schedule against it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// randConstructors build explicitly-seeded generators; everything else at
// package level in math/rand draws from the shared global stream. (That the
// generator is seeded from the run's own seed is the seededrand analyzer's
// concern, not this one's.)
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true, "NewZipf": true,
}

// fmtIOFuncs write to stdout or an arbitrary writer, or read input; the
// Sprint/Sscan/Errorf families are pure.
var fmtIOFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Scan": true, "Scanf": true, "Scanln": true,
	"Fscan": true, "Fscanf": true, "Fscanln": true,
}

// runtimeAllowed are runtime reads that cannot leak into results: the
// parallel package's determinism contract (tested in CI) makes outputs
// byte-identical for any worker count, so sizing a pool from GOMAXPROCS is
// not an impurity.
var runtimeAllowed = map[string]bool{
	"GOMAXPROCS": true, "NumCPU": true, "Gosched": true, "KeepAlive": true,
}

// classifyExternal classifies a call into a package outside the analysis
// batch. It returns (-1, "") for allowed calls.
func classifyExternal(path, name string, sig *types.Signature) (effectKind, string) {
	detail := path + "." + name
	switch {
	case path == "time":
		if wallClockFuncs[name] {
			return effWallClock, detail
		}
	case path == "math/rand" || path == "math/rand/v2":
		if (sig == nil || sig.Recv() == nil) && !randConstructors[name] {
			return effGlobalRand, detail
		}
	case path == "fmt":
		if fmtIOFuncs[name] {
			return effIO, detail
		}
	case path == "runtime":
		if !runtimeAllowed[name] {
			return effIO, detail
		}
	case path == "runtime/debug":
		if name != "Stack" { // debug.Stack only runs on the panic path
			return effIO, detail
		}
	case deniedPkg(path):
		return effIO, detail
	}
	return -1, ""
}

// stdlibMutatesArg0 lists allowed stdlib helpers that nonetheless reorder
// or overwrite their first argument in place.
func stdlibMutatesArg0(path, name string) bool {
	switch path {
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Ints", "Float64s", "Strings":
			return true
		}
	case "slices":
		switch name {
		case "Sort", "SortFunc", "SortStableFunc", "Reverse", "Delete", "Insert":
			return true
		}
	}
	return false
}
