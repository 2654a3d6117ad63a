// Package ctxguard enforces the context discipline a long-lived CTS server
// needs before flow runs can be cancelled. Three rules:
//
//  1. A function that already receives a context.Context must thread it:
//     calling context.Background() or context.TODO() inside such a function
//     severs the cancellation chain; the finding names the parameter to
//     pass instead.
//
//  2. An infinite loop (for {}) in a context-carrying function that drives
//     channel work or parallel.ForEach/ForEachSpan fan-out must observe the
//     context somewhere in its body (ctx.Done(), ctx.Err(), or passing ctx
//     on); otherwise the daemon cannot cancel it.
//
//  3. A goroutine whose body sends on a channel made unbuffered in the same
//     function must have an escape: the send inside a select with a default
//     or a Done() case. Without one, the goroutine blocks forever when the
//     receiver bails out early — the classic leak under request timeouts.
//
// Order-safe exceptions carry //slltlint:ignore ctxguard <reason>.
package ctxguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"sllt/internal/analysis"
)

// parallelPath is the fan-out package whose drivers rule 2 recognizes.
const parallelPath = "sllt/internal/parallel"

// Analyzer is the ctxguard rule set.
var Analyzer = &analysis.Analyzer{
	Name: "ctxguard",
	Doc:  "daemon-readiness context discipline: thread context.Context into callees instead of calling context.Background/TODO, make infinite channel or fan-out loops cancellable, and give unbuffered sends in goroutines an escape",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.SkipFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name, obj := ctxParam(pass, fd)
			if obj != nil {
				checkBackgroundCalls(pass, fd.Body, name)
				checkInfiniteLoops(pass, fd.Body, obj, name)
			}
			checkUnbufferedSends(pass, fd)
		}
	}
	return nil
}

// ctxParam returns the name and object of the function's first
// context.Context parameter, or ("", nil).
func ctxParam(pass *analysis.Pass, fd *ast.FuncDecl) (string, types.Object) {
	if fd.Type.Params == nil {
		return "", nil
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj != nil && isCtxType(obj.Type()) {
				return name.Name, obj
			}
		}
	}
	return "", nil
}

func isCtxType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// checkBackgroundCalls flags context.Background()/context.TODO() inside a
// function that already has a context parameter (rule 1).
func checkBackgroundCalls(pass *analysis.Pass, body *ast.BlockStmt, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || pass.ImportedPkgOf(sel) != "context" {
			return true
		}
		fname := sel.Sel.Name
		if fname != "Background" && fname != "TODO" {
			return true
		}
		if ctxName == "" || ctxName == "_" {
			pass.Reportf(call.Pos(),
				"context.%s() inside a function that receives a context.Context; name the parameter and thread it through",
				fname)
			return true
		}
		pass.Reportf(call.Pos(),
			"context.%s() severs the cancellation chain; thread it instead of context.%s (function already has context parameter %q)",
			fname, fname, ctxName)
		return true
	})
}

// checkInfiniteLoops flags for-loops without a condition that drive channel
// work or parallel fan-out but never observe the context (rule 2).
func checkInfiniteLoops(pass *analysis.Pass, body *ast.BlockStmt, ctxObj types.Object, ctxName string) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		hazard := false
		usesCtx := false
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.SendStmt:
				hazard = true
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					hazard = true
				}
			case *ast.CallExpr:
				if isParallelDriver(pass, x) {
					hazard = true
				}
			case *ast.Ident:
				if pass.TypesInfo.Uses[x] == ctxObj {
					usesCtx = true
				}
			}
			return true
		})
		if hazard && !usesCtx {
			pass.Reportf(loop.Pos(),
				"infinite loop drives channel or fan-out work but never checks %s.Done(); a server cannot cancel it",
				ctxName)
		}
		return true
	})
}

// isParallelDriver reports whether the call is parallel.ForEach or
// parallel.ForEachSpan.
func isParallelDriver(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || pass.ImportedPkgOf(sel) != parallelPath {
		return false
	}
	return sel.Sel.Name == "ForEach" || sel.Sel.Name == "ForEachSpan"
}

// checkUnbufferedSends flags goroutine sends on channels made unbuffered in
// the same function when the send has no escape (rule 3).
func checkUnbufferedSends(pass *analysis.Pass, fd *ast.FuncDecl) {
	unbuf := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i < len(s.Lhs) && isUnbufferedMake(pass, rhs) {
					if id, ok := s.Lhs[i].(*ast.Ident); ok {
						if obj := pass.TypesInfo.Defs[id]; obj != nil {
							unbuf[obj] = true
						} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
							unbuf[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range s.Values {
				if i < len(s.Names) && isUnbufferedMake(pass, rhs) {
					if obj := pass.TypesInfo.Defs[s.Names[i]]; obj != nil {
						unbuf[obj] = true
					}
				}
			}
		}
		return true
	})
	if len(unbuf) == 0 {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		safe := safeSelectRanges(pass, lit.Body)
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			send, ok := m.(*ast.SendStmt)
			if !ok {
				return true
			}
			id, ok := send.Chan.(*ast.Ident)
			if !ok || !unbuf[pass.TypesInfo.Uses[id]] {
				return true
			}
			for _, r := range safe {
				if send.Pos() >= r[0] && send.End() <= r[1] {
					return true
				}
			}
			pass.Reportf(send.Pos(),
				"goroutine sends on unbuffered channel %q with no select default or Done() escape; if the receiver returns early this goroutine blocks forever",
				id.Name)
			return true
		})
		return true
	})
}

// isUnbufferedMake matches make(chan T) and make(chan T, 0).
func isUnbufferedMake(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "make" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	if t := pass.TypeOf(call.Args[0]); t == nil || !isChanType(t) {
		return false
	}
	if len(call.Args) == 1 {
		return true
	}
	if lit, ok := call.Args[1].(*ast.BasicLit); ok && lit.Kind == token.INT {
		if v, err := strconv.ParseInt(lit.Value, 0, 64); err == nil {
			return v == 0
		}
	}
	return false
}

func isChanType(t types.Type) bool {
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// safeSelectRanges returns the source ranges of select statements that have
// an escape: a default clause or a case receiving from a Done() channel.
func safeSelectRanges(pass *analysis.Pass, body *ast.BlockStmt) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, clause := range sel.Body.List {
			cc, ok := clause.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil || hasDoneCall(cc.Comm) {
				out = append(out, [2]token.Pos{sel.Pos(), sel.End()})
				break
			}
		}
		return true
	})
	return out
}

// hasDoneCall reports whether the comm statement involves a .Done() call
// (the conventional cancellation case).
func hasDoneCall(stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
		}
		return !found
	})
	return found
}
