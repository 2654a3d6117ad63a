// Package unitflow checks physical-unit consistency across the CTS code.
//
// The repository computes in a fixed unit system (length µm, capacitance fF,
// resistance kΩ, time ps, chosen so 1 kΩ · 1 fF = 1 ps). Those units live
// only in prose comments; nothing stops a wirelength from being added to a
// latency. unitflow turns the prose into machine-checked annotations: struct
// fields, consts, vars and function signatures declare units in doc comments
// (see annotations.go for the grammar), and an intraprocedural forward
// dataflow pass propagates them through assignments, arithmetic, calls and
// returns.
//
// The algebra is dimensional: + - and comparisons require equal units, * and
// / compose them (kΩ·fF → ps, fF/µm · µm → fF), math.Sqrt halves exponents
// (odd exponents are incoherent and reported). Three value states keep the
// checker sound but quiet: a quantity is unknown (unannotated — never
// checked), scalar (constants and counts — polymorphic, adopts the other
// operand), or known (carries a Unit — checked everywhere it meets another
// known). The pass is a single forward walk per function: no fixpoint over
// loop back-edges, so a unit learned late in a loop body is not visible at
// the loop head. That trades a little recall for zero spurious reports on
// the reconvergence patterns real CTS code is full of.
package unitflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"sllt/internal/analysis"
)

// Analyzer is the unitflow pass.
var Analyzer = &analysis.Analyzer{
	Name:    "unitflow",
	Doc:     "check physical-unit consistency (ps, fF, µm, kΩ) of annotated quantities",
	URL:     "DESIGN.md#units--static-verification",
	Prepare: prepare,
	Run:     run,
}

// reg is the annotation registry of the current Run batch, built by Prepare
// and read-only afterwards (passes may run concurrently).
var reg *registry

func prepare(pkgs []*analysis.Package) error {
	reg = newRegistry()
	for _, pkg := range pkgs {
		collectPkg(pkg, reg)
	}
	return nil
}

func run(pass *analysis.Pass) error {
	for _, d := range reg.diags[pass.Pkg.Path()] {
		pass.Reportf(d.pos, "%s", d.msg)
	}
	c := &checker{pass: pass, reg: reg}
	for _, f := range pass.Files {
		if analysis.SkipFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				c.checkFunc(d)
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					c.env = make(map[types.Object]uval)
					c.results = nil
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							c.valueSpec(vs, true)
						}
					}
				}
			}
		}
	}
	return nil
}

// vkind classifies what the checker knows about a value's unit.
type vkind int

const (
	vUnknown vkind = iota // no information; never participates in checks
	vScalar               // dimensionless by construction (literals, counts); adopts the other operand
	vKnown                // carries a definite Unit
)

// uval is the abstract value of the dataflow lattice.
type uval struct {
	k vkind
	u Unit
}

func known(u Unit) uval { return uval{vKnown, u} }
func scalar() uval      { return uval{k: vScalar} }

type checker struct {
	pass *analysis.Pass
	reg  *registry

	// env maps local objects (params, locals) to their inferred units.
	env map[types.Object]uval
	// results is a stack of declared result units, innermost function last;
	// a nil entry means the enclosing function's results are unannotated.
	results [][]Unit
}

// checkFunc analyzes one function body with a fresh environment seeded from
// the function's parameter annotations.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	c.env = make(map[types.Object]uval)
	var fu funcUnits
	if obj, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		fu, _ = c.reg.funcUnitsOf(obj)
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				u, ok := fu.params[name.Name]
				if !ok {
					continue
				}
				if obj := c.pass.TypesInfo.Defs[name]; obj != nil {
					c.env[obj] = known(u)
				}
			}
		}
	}
	c.results = [][]Unit{fu.results}
	c.stmt(fd.Body)
	c.results = nil
}

// ---- statements ----

func (c *checker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, t := range s.List {
			c.stmt(t)
		}
	case *ast.ExprStmt:
		c.expr(s.X)
	case *ast.AssignStmt:
		c.assign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					c.valueSpec(vs, false)
				}
			}
		}
	case *ast.ReturnStmt:
		c.ret(s)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Body)
		c.stmt(s.Else)
	case *ast.ForStmt:
		c.stmt(s.Init)
		if s.Cond != nil {
			c.expr(s.Cond)
		}
		c.stmt(s.Post)
		c.stmt(s.Body)
	case *ast.RangeStmt:
		c.rangeStmt(s)
	case *ast.SwitchStmt:
		c.switchStmt(s)
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Assign)
		c.stmt(s.Body)
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.DeferStmt:
		c.expr(s.Call)
	case *ast.GoStmt:
		c.expr(s.Call)
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.SelectStmt:
		c.stmt(s.Body)
	case *ast.CommClause:
		c.stmt(s.Comm)
		for _, t := range s.Body {
			c.stmt(t)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			c.expr(e)
		}
		for _, t := range s.Body {
			c.stmt(t)
		}
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

// switchStmt checks each case expression against the tag's unit — a switch
// tag comparison is a comparison like any other.
func (c *checker) switchStmt(s *ast.SwitchStmt) {
	c.stmt(s.Init)
	var tag uval
	if s.Tag != nil {
		tag = c.expr(s.Tag)
	}
	for _, cl := range s.Body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			v := c.expr(e)
			if s.Tag != nil {
				c.requireSame(e.Pos(), "compare", tag, v)
			}
		}
		for _, t := range cc.Body {
			c.stmt(t)
		}
	}
}

// rangeStmt binds range variables: over a slice/array the key is a
// dimensionless index and the value takes the container's element unit;
// over a map only the value does (units annotate elements); ranging over an
// integer yields values in the integer's own unit.
func (c *checker) rangeStmt(s *ast.RangeStmt) {
	x := c.expr(s.X)
	keyVal, elemVal := scalar(), x
	if t := c.pass.TypeOf(s.X); t != nil {
		switch t.Underlying().(type) {
		case *types.Basic: // range over int
			keyVal, elemVal = x, uval{}
		case *types.Map:
			keyVal = uval{}
		case *types.Chan:
			keyVal, elemVal = x, uval{}
		}
	}
	bind := func(e ast.Expr, v uval) {
		if e == nil {
			return
		}
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && s.Tok == token.DEFINE {
			c.bindDefine(id, v)
			return
		}
		c.store(e, v, e.Pos())
	}
	bind(s.Key, keyVal)
	bind(s.Value, elemVal)
	c.stmt(s.Body)
}

// ret checks return values against the enclosing function's declared
// result units.
func (c *checker) ret(s *ast.ReturnStmt) {
	var want []Unit
	if len(c.results) > 0 {
		want = c.results[len(c.results)-1]
	}
	if len(s.Results) == 0 {
		return // naked return: named results are not tracked
	}
	var vals []uval
	if len(s.Results) == 1 && len(want) > 1 {
		call, ok := ast.Unparen(s.Results[0]).(*ast.CallExpr)
		if !ok {
			c.expr(s.Results[0])
			return
		}
		vals = c.call(call)
	} else {
		for _, e := range s.Results {
			vals = append(vals, c.expr(e))
		}
	}
	for i, w := range want {
		if w == nil || i >= len(vals) {
			continue
		}
		if v := vals[i]; v.k == vKnown && !v.u.Equal(w) {
			pos := s.Results[0].Pos()
			if i < len(s.Results) {
				pos = s.Results[i].Pos()
			}
			c.pass.Reportf(pos, "unit mismatch: returning %q where result %d is declared %q", v.u, i+1, w)
		}
	}
}

// valueSpec handles var declarations. Top-level specs resolve annotations
// through the registry (collectPkg already parsed and validated them);
// local specs parse their own trailing // unit: directive here, so every
// annotation in a body is consumed too.
func (c *checker) valueSpec(vs *ast.ValueSpec, topLevel bool) {
	var declared Unit
	if !topLevel {
		if text, ok := directiveIn(vs.Doc, vs.Comment); ok {
			u, err := ParseUnit(text)
			if err != nil {
				c.pass.Reportf(vs.Pos(), "bad unit annotation: %v", err)
			} else {
				declared = u
			}
		}
	}
	if len(vs.Values) == 1 && len(vs.Names) > 1 {
		var vals []uval
		if call, ok := ast.Unparen(vs.Values[0]).(*ast.CallExpr); ok {
			vals = c.call(call)
		} else {
			c.expr(vs.Values[0])
		}
		for i, name := range vs.Names {
			var v uval
			if i < len(vals) {
				v = vals[i]
			}
			c.bindVar(name, v, declared, vs.Values[0].Pos())
		}
		return
	}
	for i, name := range vs.Names {
		var v uval
		pos := name.Pos()
		if i < len(vs.Values) {
			v = c.expr(vs.Values[i])
			pos = vs.Values[i].Pos()
		}
		c.bindVar(name, v, declared, pos)
	}
}

// bindVar binds a declared variable: registry annotation first (top-level),
// then the local directive, then the inferred value.
func (c *checker) bindVar(name *ast.Ident, v uval, declared Unit, pos token.Pos) {
	if name.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.Defs[name]
	if obj == nil {
		return
	}
	if u, ok := c.reg.valUnit(obj); ok {
		c.checkStore(pos, v, u, name.Name)
		return // ident() resolves through the registry
	}
	if declared != nil {
		c.checkStore(pos, v, declared, name.Name)
		c.env[obj] = known(declared)
		return
	}
	if v.k != vUnknown {
		c.env[obj] = v
	}
}

// assign handles every assignment operator.
func (c *checker) assign(as *ast.AssignStmt) {
	switch as.Tok {
	case token.DEFINE:
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			vals := c.multiValue(as.Rhs[0])
			for i, lhs := range as.Lhs {
				var v uval
				if i < len(vals) {
					v = vals[i]
				}
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					c.bindDefine(id, v)
				}
			}
			return
		}
		for i, lhs := range as.Lhs {
			var v uval
			if i < len(as.Rhs) {
				v = c.expr(as.Rhs[i])
			}
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				c.bindDefine(id, v)
			}
		}
	case token.ASSIGN:
		if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
			vals := c.multiValue(as.Rhs[0])
			for i, lhs := range as.Lhs {
				var v uval
				if i < len(vals) {
					v = vals[i]
				}
				c.store(lhs, v, as.Rhs[0].Pos())
			}
			return
		}
		for i, lhs := range as.Lhs {
			var v uval
			pos := lhs.Pos()
			if i < len(as.Rhs) {
				v = c.expr(as.Rhs[i])
				pos = as.Rhs[i].Pos()
			}
			c.store(lhs, v, pos)
		}
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		t := c.expr(as.Lhs[0])
		v := c.expr(as.Rhs[0])
		verb := "add"
		if as.Tok == token.SUB_ASSIGN {
			verb = "subtract"
		}
		merged := c.requireSame(as.TokPos, verb, t, v)
		// An accumulator initialized from a bare literal (s := 0.0) learns
		// its unit from the first dimensioned += so later uses are checked.
		if t.k != vKnown && merged.k == vKnown {
			if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
				if obj := c.objOf(id); obj != nil {
					if _, ann := c.reg.valUnit(obj); !ann {
						c.env[obj] = merged
					}
				}
			}
		}
	case token.MUL_ASSIGN, token.QUO_ASSIGN:
		t := c.expr(as.Lhs[0])
		v := c.expr(as.Rhs[0])
		res := c.mulDiv(t, v, as.Tok == token.QUO_ASSIGN)
		c.store(as.Lhs[0], res, as.TokPos)
	default: // bitwise compound ops: evaluate for side effects only
		for _, lhs := range as.Lhs {
			c.expr(lhs)
		}
		for _, rhs := range as.Rhs {
			c.expr(rhs)
		}
	}
}

// multiValue evaluates the single rhs of a tuple assignment, returning
// per-position units when it is an annotated call.
func (c *checker) multiValue(rhs ast.Expr) []uval {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		return c.call(call)
	}
	c.expr(rhs)
	return nil
}

// bindDefine binds a := target (Defs for fresh names, Uses for the
// redeclaration case).
func (c *checker) bindDefine(id *ast.Ident, v uval) {
	if id.Name == "_" {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	if v.k == vUnknown {
		delete(c.env, obj)
	} else {
		c.env[obj] = v
	}
}

// store assigns v to an lvalue: annotated targets are checked, plain local
// idents are rebound, and an indexed store into a unit-less local container
// teaches the container its element unit.
func (c *checker) store(lhs ast.Expr, v uval, pos token.Pos) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := c.objOf(l)
		if obj == nil {
			return
		}
		if u, ok := c.reg.valUnit(obj); ok {
			c.checkStore(pos, v, u, l.Name)
			return
		}
		if v.k == vUnknown {
			delete(c.env, obj)
		} else {
			c.env[obj] = v
		}
	case *ast.SelectorExpr:
		cur := c.selector(l)
		if cur.k == vKnown {
			c.checkStore(pos, v, cur.u, l.Sel.Name)
		}
	case *ast.IndexExpr:
		c.expr(l.Index)
		cur := c.expr(l.X)
		if cur.k == vKnown {
			c.checkStore(pos, v, cur.u, lvalueName(l.X))
			return
		}
		if id, ok := ast.Unparen(l.X).(*ast.Ident); ok && v.k != vUnknown {
			if obj := c.objOf(id); obj != nil {
				if _, ann := c.reg.valUnit(obj); !ann {
					if _, exists := c.env[obj]; !exists {
						c.env[obj] = v
					}
				}
			}
		}
	case *ast.StarExpr:
		cur := c.expr(l.X)
		if cur.k == vKnown {
			c.checkStore(pos, v, cur.u, lvalueName(l.X))
		}
	default:
		c.expr(lhs)
	}
}

func (c *checker) checkStore(pos token.Pos, v uval, declared Unit, name string) {
	if v.k == vKnown && !v.u.Equal(declared) {
		c.pass.Reportf(pos, "unit mismatch: cannot assign %q to %s (declared %q)", v.u, name, declared)
	}
}

// ---- expressions ----

func (c *checker) expr(e ast.Expr) uval {
	switch e := e.(type) {
	case nil:
		return uval{}
	case *ast.ParenExpr:
		return c.expr(e.X)
	case *ast.BasicLit:
		return scalar()
	case *ast.Ident:
		return c.ident(e)
	case *ast.SelectorExpr:
		return c.selector(e)
	case *ast.CallExpr:
		if vs := c.call(e); len(vs) > 0 {
			return vs[0]
		}
		return uval{}
	case *ast.BinaryExpr:
		return c.binary(e)
	case *ast.UnaryExpr:
		v := c.expr(e.X)
		switch e.Op {
		case token.ADD, token.SUB:
			return v
		}
		return uval{}
	case *ast.StarExpr:
		return c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.Index)
		return c.expr(e.X) // units annotate elements
	case *ast.SliceExpr:
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
		return c.expr(e.X)
	case *ast.CompositeLit:
		return c.composite(e)
	case *ast.FuncLit:
		// The body is analyzed in the current env so captured locals keep
		// their units; the literal's own results are unannotated.
		c.results = append(c.results, nil)
		c.stmt(e.Body)
		c.results = c.results[:len(c.results)-1]
		return uval{}
	case *ast.TypeAssertExpr:
		c.expr(e.X)
		return uval{}
	}
	return uval{}
}

func (c *checker) ident(id *ast.Ident) uval {
	obj := c.objOf(id)
	if obj == nil {
		return uval{}
	}
	if u, ok := c.reg.valUnit(obj); ok {
		return known(u)
	}
	if v, ok := c.env[obj]; ok {
		return v
	}
	if _, isConst := obj.(*types.Const); isConst {
		return scalar()
	}
	if tv, ok := c.pass.TypesInfo.Types[id]; ok && tv.Value != nil {
		return scalar()
	}
	return uval{}
}

func (c *checker) selector(sel *ast.SelectorExpr) uval {
	// Qualified identifier: pkg.Name.
	if c.pass.ImportedPkgOf(sel) != "" {
		obj := c.pass.TypesInfo.Uses[sel.Sel]
		if u, ok := c.reg.valUnit(obj); ok {
			return known(u)
		}
		if _, isConst := obj.(*types.Const); isConst {
			return scalar()
		}
		return uval{}
	}
	// Field or method selection.
	c.expr(sel.X)
	if s, ok := c.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if f, ok := s.Obj().(*types.Var); ok {
			if u, ok := c.reg.fieldUnit(f, s.Recv()); ok {
				return known(u)
			}
		}
	}
	return uval{}
}

func (c *checker) binary(b *ast.BinaryExpr) uval {
	x := c.expr(b.X)
	y := c.expr(b.Y)
	switch b.Op {
	case token.ADD, token.SUB:
		if t := c.pass.TypeOf(b.X); t != nil && !isNumeric(t) {
			return uval{} // string concatenation
		}
		verb := "add"
		if b.Op == token.SUB {
			verb = "subtract"
		}
		return c.requireSame(b.OpPos, verb, x, y)
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		c.requireSame(b.OpPos, "compare", x, y)
		return uval{}
	case token.MUL:
		return c.mulDiv(x, y, false)
	case token.QUO:
		return c.mulDiv(x, y, true)
	case token.REM:
		return c.requireSame(b.OpPos, "take the remainder of", x, y)
	}
	return uval{}
}

// requireSame enforces the same-unit rule of + - comparisons: two known
// units must be equal; a known operand dominates scalar and unknown ones.
func (c *checker) requireSame(pos token.Pos, verb string, a, b uval) uval {
	if a.k == vKnown && b.k == vKnown {
		if !a.u.Equal(b.u) {
			c.pass.Reportf(pos, "unit mismatch: cannot %s %q and %q", verb, a.u.String(), b.u.String())
		}
		return a
	}
	if a.k == vKnown {
		return a
	}
	if b.k == vKnown {
		return b
	}
	if a.k == vScalar && b.k == vScalar {
		return scalar()
	}
	return uval{}
}

// mulDiv composes units through * and /: exponents add or subtract, scalars
// are absorbed, and a scalar numerator inverts the denominator (1/kΩ).
func (c *checker) mulDiv(x, y uval, div bool) uval {
	switch {
	case x.k == vKnown && y.k == vKnown:
		if div {
			return known(x.u.Div(y.u))
		}
		return known(x.u.Mul(y.u))
	case x.k == vKnown && y.k == vScalar:
		return x
	case y.k == vKnown && x.k == vScalar:
		if div {
			return known(Unit{}.Div(y.u))
		}
		return y
	case x.k == vScalar && y.k == vScalar:
		return scalar()
	}
	return uval{}
}

// call evaluates a call expression, checks annotated parameters, and
// returns the per-result units.
func (c *checker) call(call *ast.CallExpr) []uval {
	// Type conversion: float64(x) keeps x's unit.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return []uval{c.expr(call.Args[0])}
		}
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			return c.builtin(b.Name(), call)
		}
	}
	// math.* gets dimensional treatment.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.pass.ImportedPkgOf(sel) == "math" {
		return c.mathCall(sel.Sel.Name, call)
	}
	// Resolve the callee and evaluate the callee expression's own parts.
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = c.pass.TypesInfo.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = c.pass.TypesInfo.Uses[f.Sel].(*types.Func)
		if _, ok := c.pass.TypesInfo.Selections[f]; ok {
			c.expr(f.X) // method receiver
		}
	default:
		c.expr(call.Fun)
	}
	args := make([]uval, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.expr(a)
	}
	if fn != nil {
		if fu, ok := c.reg.funcUnitsOf(fn); ok {
			if sig, ok := fn.Type().(*types.Signature); ok {
				c.checkArgs(call, fn, fu, sig, args)
				n := sig.Results().Len()
				out := make([]uval, n)
				for i := 0; i < n && i < len(fu.results); i++ {
					if fu.results[i] != nil {
						out[i] = known(fu.results[i])
					}
				}
				if len(out) == 0 {
					out = []uval{{}}
				}
				return out
			}
		}
	}
	return []uval{{}}
}

// checkArgs matches call arguments against the callee's parameter
// annotations by declared parameter name.
func (c *checker) checkArgs(call *ast.CallExpr, fn *types.Func, fu funcUnits, sig *types.Signature, args []uval) {
	np := sig.Params().Len()
	for i := range call.Args {
		pi := i
		if sig.Variadic() && pi >= np-1 {
			pi = np - 1
		}
		if pi >= np {
			break
		}
		name := sig.Params().At(pi).Name()
		want, ok := fu.params[name]
		if !ok {
			continue
		}
		if got := args[i]; got.k == vKnown && !got.u.Equal(want) {
			c.pass.Reportf(call.Args[i].Pos(),
				"unit mismatch: argument %q of %s wants %q, got %q", name, fn.Name(), want, got.u)
		}
	}
}

// builtin models the handful of builtins whose results carry units.
func (c *checker) builtin(name string, call *ast.CallExpr) []uval {
	switch name {
	case "len", "cap":
		for _, a := range call.Args {
			c.expr(a)
		}
		return []uval{scalar()}
	case "append":
		var first uval
		for i, a := range call.Args {
			v := c.expr(a)
			if i == 0 {
				first = v
			}
		}
		return []uval{first}
	case "min", "max":
		var out uval
		for i, a := range call.Args {
			v := c.expr(a)
			if i == 0 {
				out = v
			} else {
				out = c.requireSame(a.Pos(), "compare", out, v)
			}
		}
		return []uval{out}
	default:
		for _, a := range call.Args {
			c.expr(a)
		}
		return []uval{{}}
	}
}

// mathCall models the math functions the CTS code leans on. Sqrt halves
// exponents (reporting when one is odd), Min/Max/Mod/Hypot require equal
// units, Abs and the rounders pass units through, Log/Exp demand (and
// yield) dimensionless values when their argument's unit is known.
func (c *checker) mathCall(name string, call *ast.CallExpr) []uval {
	args := make([]uval, len(call.Args))
	for i, a := range call.Args {
		args[i] = c.expr(a)
	}
	one := func(v uval) []uval { return []uval{v} }
	switch name {
	case "Abs", "Ceil", "Floor", "Round", "Trunc":
		if len(args) == 1 {
			return one(args[0])
		}
	case "Sqrt":
		if len(args) == 1 {
			if args[0].k != vKnown {
				return one(args[0])
			}
			if u, ok := args[0].u.Sqrt(); ok {
				return one(known(u))
			}
			c.pass.Reportf(call.Pos(),
				"unit mismatch: math.Sqrt of %q is dimensionally incoherent (odd exponent)", args[0].u)
			return one(uval{})
		}
	case "Min", "Max", "Mod", "Hypot", "Dim", "Remainder":
		if len(args) == 2 {
			return one(c.requireSame(call.Args[1].Pos(), "combine", args[0], args[1]))
		}
	case "Inf", "NaN":
		return one(scalar())
	case "Log", "Log2", "Log10", "Log1p", "Exp", "Exp2", "Expm1":
		if len(args) == 1 {
			if args[0].k == vKnown && !args[0].u.Dimensionless() {
				c.pass.Reportf(call.Args[0].Pos(),
					"unit mismatch: math.%s of dimensioned quantity %q", name, args[0].u)
				return one(uval{})
			}
			if args[0].k != vUnknown {
				return one(known(Unit{}))
			}
		}
		return one(uval{})
	case "Pow":
		return one(uval{})
	}
	return []uval{{}}
}

// composite checks struct literals against field annotations (keyed and
// positional forms) and evaluates everything else for side effects.
func (c *checker) composite(cl *ast.CompositeLit) uval {
	t := c.pass.TypeOf(cl)
	var st *types.Struct
	if t != nil {
		if s, ok := t.Underlying().(*types.Struct); ok {
			st = s
		}
	}
	for i, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			v := c.expr(kv.Value)
			if key, ok := kv.Key.(*ast.Ident); ok && st != nil {
				if f, ok := c.pass.TypesInfo.Uses[key].(*types.Var); ok {
					if u, ok := c.reg.fieldUnit(f, t); ok && v.k == vKnown && !v.u.Equal(u) {
						c.pass.Reportf(kv.Value.Pos(),
							"unit mismatch: field %s declared %q, got %q", key.Name, u, v.u)
					}
				}
			} else if !ok {
				c.expr(kv.Key) // map literal key
			}
			continue
		}
		v := c.expr(el)
		if st != nil && i < st.NumFields() {
			f := st.Field(i)
			if u, ok := c.reg.fieldUnit(f, t); ok && v.k == vKnown && !v.u.Equal(u) {
				c.pass.Reportf(el.Pos(),
					"unit mismatch: field %s declared %q, got %q", f.Name(), u, v.u)
			}
		}
	}
	return uval{}
}

// ---- small helpers ----

func (c *checker) objOf(id *ast.Ident) types.Object {
	if o := c.pass.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return c.pass.TypesInfo.Defs[id]
}

func lvalueName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return "element"
}

func isNumeric(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}
