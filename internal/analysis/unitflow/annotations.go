package unitflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"sllt/internal/analysis"
)

// The annotation grammar. A directive is a comment line of the form
//
//	// unit: <expr>
//
// attached to a struct field, package-level const or var (doc comment or
// trailing line comment), where <expr> is a unit expression (see ParseUnit):
//
//	RPerUm float64 // unit: kohm/um
//	SinkCap float64 // unit: fF
//
// On a field of map, slice or array type the unit describes the elements.
// Function and method doc comments use the signature form, which must
// contain "->":
//
//	// unit: length um, load fF -> ps
//	// unit: -> fF
//
// naming parameters by their declared names (unnamed parameters cannot be
// annotated) and listing result units positionally; "_" skips a position.
// Unknown unit tokens and malformed directives are themselves diagnostics,
// reported at the annotated declaration.

// directivePrefix introduces a unit annotation inside a comment.
const directivePrefix = "unit:"

// funcUnits is the parsed signature annotation of one function.
type funcUnits struct {
	params  map[string]Unit
	results []Unit // positional; nil entry = unannotated
}

// annDiag is an annotation-site problem, reported when the owning package's
// pass runs.
type annDiag struct {
	pos token.Pos
	msg string
}

// registry holds every annotation of a Run batch, keyed by stable symbol
// strings so lookups work across packages (a types.Object for tech.Tech
// loaded from export data while checking timing is a different object than
// the one from tech's own source — the string key is identity-free):
//
//	values:    "pkg/path.Name"            consts and vars
//	           "pkg/path.Type.Field"      struct fields
//	functions: "pkg/path.Name"            package functions
//	           "pkg/path.Type.Method"     methods (any receiver form)
type registry struct {
	vals  map[string]Unit
	funcs map[string]funcUnits
	diags map[string][]annDiag // by package import path
}

func newRegistry() *registry {
	return &registry{
		vals:  make(map[string]Unit),
		funcs: make(map[string]funcUnits),
		diags: make(map[string][]annDiag),
	}
}

// collectPkg scans one loaded package's syntax for unit directives.
func collectPkg(pkg *analysis.Package, reg *registry) {
	path := pkg.ImportPath
	report := func(pos token.Pos, format string, args ...any) {
		reg.diags[path] = append(reg.diags[path], annDiag{pos, fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				switch d.Tok {
				case token.CONST, token.VAR:
					collectValues(pkg, d, path, reg, report)
				case token.TYPE:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						collectFields(pkg, ts.Name.Name, st, path, reg, report)
					}
				}
			case *ast.FuncDecl:
				collectFunc(pkg, d, path, reg, report)
			}
		}
	}
}

// collectValues records const/var annotations: on each spec's own doc or
// line comment, or on the decl's doc when it holds a single spec.
func collectValues(pkg *analysis.Package, d *ast.GenDecl, path string, reg *registry, report func(token.Pos, string, ...any)) {
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		text, ok := directiveIn(vs.Doc, vs.Comment)
		if !ok && len(d.Specs) == 1 {
			text, ok = directiveIn(d.Doc, nil)
		}
		if !ok {
			continue
		}
		u, err := ParseUnit(text)
		if err != nil {
			report(vs.Pos(), "bad unit annotation: %v", err)
			continue
		}
		for _, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			if obj := pkg.TypesInfo.Defs[name]; obj != nil && !numericCarrier(obj.Type()) {
				report(name.Pos(), "unit annotation %q on non-numeric %s", u, obj.Type())
				continue
			}
			reg.vals[path+"."+name.Name] = u
		}
	}
}

// collectFields records struct field annotations.
func collectFields(pkg *analysis.Package, typeName string, st *ast.StructType, path string, reg *registry, report func(token.Pos, string, ...any)) {
	for _, field := range st.Fields.List {
		text, ok := directiveIn(field.Doc, field.Comment)
		if !ok {
			continue
		}
		u, err := ParseUnit(text)
		if err != nil {
			report(field.Pos(), "bad unit annotation: %v", err)
			continue
		}
		for _, name := range field.Names {
			if obj := pkg.TypesInfo.Defs[name]; obj != nil && !numericCarrier(obj.Type()) {
				report(name.Pos(), "unit annotation %q on non-numeric %s", u, obj.Type())
				continue
			}
			reg.vals[path+"."+typeName+"."+name.Name] = u
		}
	}
}

// collectFunc records a function's signature annotation from its doc.
func collectFunc(pkg *analysis.Package, fd *ast.FuncDecl, path string, reg *registry, report func(token.Pos, string, ...any)) {
	text, ok := directiveIn(fd.Doc, nil)
	if !ok {
		return
	}
	fu, err := parseFuncDirective(text)
	if err != nil {
		report(fd.Name.Pos(), "bad unit annotation: %v", err)
		return
	}
	// Validate the named parameters against the declaration.
	declared := map[string]bool{}
	if fd.Type.Params != nil {
		for _, f := range fd.Type.Params.List {
			for _, n := range f.Names {
				declared[n.Name] = true
			}
		}
	}
	for name := range fu.params {
		if !declared[name] {
			report(fd.Name.Pos(), "unit annotation names parameter %q, which %s does not declare", name, fd.Name.Name)
		}
	}
	nres := 0
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			if n := len(f.Names); n > 0 {
				nres += n
			} else {
				nres++
			}
		}
	}
	if len(fu.results) > nres {
		report(fd.Name.Pos(), "unit annotation declares %d results, %s has %d", len(fu.results), fd.Name.Name, nres)
		return
	}
	reg.funcs[analysis.SymKey(path, fd)] = fu
}

// directiveIn extracts the first unit directive from the given comment
// groups. The expression is cut at any embedded "//" so fixture want
// comments can share the line.
func directiveIn(groups ...*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			text = strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
			if i := strings.Index(text, "//"); i >= 0 {
				text = strings.TrimSpace(text[:i])
			}
			return text, true
		}
	}
	return "", false
}

// parseFuncDirective parses the signature form
// "name unit, name unit -> unit, unit".
func parseFuncDirective(text string) (funcUnits, error) {
	fu := funcUnits{params: map[string]Unit{}}
	left, right, found := strings.Cut(text, "->")
	if !found {
		return fu, fmt.Errorf("function unit annotation needs the signature form %q", "name unit, ... -> unit, ...")
	}
	if left = strings.TrimSpace(left); left != "" {
		for _, part := range strings.Split(left, ",") {
			fields := strings.Fields(part)
			if len(fields) < 2 {
				return fu, fmt.Errorf("parameter annotation %q is not %q", strings.TrimSpace(part), "name unit")
			}
			u, err := ParseUnit(strings.Join(fields[1:], " "))
			if err != nil {
				return fu, err
			}
			fu.params[fields[0]] = u
		}
	}
	if right = strings.TrimSpace(right); right != "" {
		for _, part := range strings.Split(right, ",") {
			part = strings.TrimSpace(part)
			if part == "_" {
				fu.results = append(fu.results, nil)
				continue
			}
			u, err := ParseUnit(part)
			if err != nil {
				return fu, err
			}
			fu.results = append(fu.results, u)
		}
	}
	return fu, nil
}

// numericCarrier reports whether a unit annotation makes sense on t: a
// numeric type, or a slice/array/map/pointer/channel of one (the unit then
// describes the elements).
func numericCarrier(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&(types.IsNumeric) != 0
	case *types.Slice:
		return numericCarrier(u.Elem())
	case *types.Array:
		return numericCarrier(u.Elem())
	case *types.Map:
		return numericCarrier(u.Elem())
	case *types.Pointer:
		return numericCarrier(u.Elem())
	case *types.Chan:
		return numericCarrier(u.Elem())
	}
	return false
}

// Lookup helpers used by the dataflow pass. They key by the defining
// package of the object, so cross-package references resolve as long as the
// defining package was part of the Run batch.

// valUnit resolves a package-level const/var annotation.
func (r *registry) valUnit(obj types.Object) (Unit, bool) {
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return nil, false
	}
	u, ok := r.vals[obj.Pkg().Path()+"."+obj.Name()]
	return u, ok
}

// fieldUnit resolves a struct field annotation given the field object and
// the receiver type it was selected from.
func (r *registry) fieldUnit(field *types.Var, recv types.Type) (Unit, bool) {
	if field == nil || field.Pkg() == nil {
		return nil, false
	}
	name := analysis.RecvTypeName(recv)
	if name == "" {
		return nil, false
	}
	u, ok := r.vals[field.Pkg().Path()+"."+name+"."+field.Name()]
	return u, ok
}

// funcUnitsOf resolves a function or method annotation.
func (r *registry) funcUnitsOf(fn *types.Func) (funcUnits, bool) {
	if fn == nil || fn.Pkg() == nil {
		return funcUnits{}, false
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name := analysis.RecvTypeName(sig.Recv().Type())
		if name == "" {
			return funcUnits{}, false
		}
		key += name + "."
	}
	key += fn.Name()
	fu, ok := r.funcs[key]
	return fu, ok
}
