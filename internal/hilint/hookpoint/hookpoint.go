// Package hookpoint enforces the one-atomic-load disabled-path idiom of
// the observability layers (internal/hook): a hook.Point observer is
// loaded exactly once per event site, into a local, and nil-checked
// before use —
//
//	if r := active.Load(); r != nil { r.observe(...) }
//
// — which is what keeps the disabled path at one atomic load plus a
// predicted branch (the machine-checked ≤2% overhead gates of E24/E25).
// The analyzer reports the ways the idiom rots:
//
//   - a Load inside a loop body (the hook must be loaded per event, not
//     re-loaded per iteration of one event's work);
//   - two Loads of the same point in one function (a TOCTOU pair — the
//     observer can be uninstalled between them);
//   - a Load whose result is used without a nil check;
//   - a write that bypasses Install/Uninstall: Point embeds its
//     atomic.Pointer so that Load inlines, which also promotes Store,
//     Swap and CompareAndSwap (and the Pointer field itself) into every
//     package that declares a point. Test files are checked for these
//     writes too.
package hookpoint

import (
	"go/ast"

	"hiconc/internal/hilint/analysis"
)

// hookPkg is the import path of the observer-slot package; package-level
// vars of type hook.Point[T] are the points this analyzer tracks.
const hookPkg = "hiconc/internal/hook"

// Analyzer is the hookpoint check.
var Analyzer = &analysis.Analyzer{
	Name: "hookpoint",
	Doc:  "hook.Point observers must be loaded once into a nil-checked local (the one-atomic-load disabled-path idiom)",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name == "hook" {
		// The implementation package itself wraps the raw atomic.Pointer.
		return nil
	}
	points := hookVars(pass.Pkg)
	if len(points) == 0 {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkWrites(pass, f, fn.Body, points)
			if f.Test {
				// Churn tests install/uninstall observers in loops on
				// purpose; the load idiom governs the instrumented
				// production sites.
				continue
			}
			checkFunc(pass, f, fn.Body, points)
		}
	}
	return nil
}

// rawWrites are the members the embedded atomic.Pointer promotes into
// a Point that change the observer without going through Install or
// Uninstall.
var rawWrites = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true, "Pointer": true}

// checkWrites reports every use of a raw write member on a hook point,
// called or taken as a method value.
func checkWrites(pass *analysis.Pass, f *analysis.File, body *ast.BlockStmt, points map[string]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !rawWrites[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && points[id.Name] {
			pass.Reportf(f, sel.Pos(),
				"hook point %s written through %s: change the observer only with Install/Uninstall", id.Name, sel.Sel.Name)
		}
		return true
	})
}

// hookVars collects the package-level variables declared with type
// hook.Point[...] in any of the package's files.
func hookVars(pkg *analysis.Package) map[string]bool {
	points := map[string]bool{}
	for _, f := range pkg.Files {
		hookName, ok := analysis.ImportName(f.AST, hookPkg)
		if !ok {
			continue
		}
		for _, decl := range f.AST.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || vs.Type == nil || !isPointType(vs.Type, hookName) {
					continue
				}
				for _, name := range vs.Names {
					points[name.Name] = true
				}
			}
		}
	}
	return points
}

// isPointType reports whether t is hook.Point[...] (under the file's
// local name for the hook import).
func isPointType(t ast.Expr, hookName string) bool {
	ix, ok := t.(*ast.IndexExpr)
	if !ok {
		return false
	}
	sel, ok := ix.X.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Point" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == hookName
}

// checkFunc validates every Load of a hook point inside one function
// body. Function literals are separate event sites and are checked
// independently (a Load inside a FuncLit is not "inside the loop" that
// merely encloses the literal).
func checkFunc(pass *analysis.Pass, f *analysis.File, body *ast.BlockStmt, points map[string]bool) {
	loads := 0
	analysis.Inspect(body, func(n ast.Node, stack []ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			checkFunc(pass, f, fl.Body, points)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Load" {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || !points[id.Name] {
			return true
		}
		loads++
		if loads > 1 {
			pass.Reportf(f, call.Pos(),
				"second Load of hook point %s in one function: the observer can change between loads — load once into a local", id.Name)
			return true
		}
		if loopDepth(stack) > 0 {
			pass.Reportf(f, call.Pos(),
				"hook point %s re-loaded inside a loop: load it once into a local before the loop (one atomic load per event)", id.Name)
			return true
		}
		if !nilCheckedUse(call, stack) {
			pass.Reportf(f, call.Pos(),
				"hook point %s used without a nil check: the disabled path must be `if x := %s.Load(); x != nil { ... }`", id.Name, id.Name)
		}
		return true
	})
}

// loopDepth counts for/range statements on the stack.
func loopDepth(stack []ast.Node) int {
	d := 0
	for _, n := range stack {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			d++
		}
	}
	return d
}

// nilCheckedUse reports whether the Load call appears in one of the
// idiom's accepted shapes:
//
//	if x := H.Load(); x != nil { ... }      // canonical
//	x := H.Load(); ...; if x != nil { ... } // split form
//	return H.Load()                         // accessor
//	H.Load() != nil / == nil                // the check is the use
func nilCheckedUse(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]
	switch p := parent.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BinaryExpr:
		// H.Load() != nil or == nil.
		if p.Op.String() == "!=" || p.Op.String() == "==" {
			if id, ok := p.Y.(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
			if id, ok := p.X.(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 {
			return false
		}
		lhs, ok := p.Lhs[0].(*ast.Ident)
		if !ok {
			return false
		}
		return nilCheckFollows(lhs.Name, p, stack)
	}
	return false
}

// nilCheckFollows reports whether the variable assigned from the Load is
// nil-checked: either the assignment is the init of an if whose
// condition tests it against nil, or a following statement of the
// enclosing block is such an if.
func nilCheckFollows(name string, assign *ast.AssignStmt, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	gp := stack[len(stack)-2]
	if ifs, ok := gp.(*ast.IfStmt); ok && ifs.Init == ast.Stmt(assign) {
		return testsNil(ifs.Cond, name)
	}
	block, ok := gp.(*ast.BlockStmt)
	if !ok {
		return false
	}
	after := false
	for _, st := range block.List {
		if st == ast.Stmt(assign) {
			after = true
			continue
		}
		if !after {
			continue
		}
		if ifs, ok := st.(*ast.IfStmt); ok && testsNil(ifs.Cond, name) {
			return true
		}
	}
	return false
}

// testsNil reports whether cond compares the named variable to nil.
func testsNil(cond ast.Expr, name string) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	if be.Op.String() != "!=" && be.Op.String() != "==" {
		return false
	}
	xid, xok := be.X.(*ast.Ident)
	yid, yok := be.Y.(*ast.Ident)
	if !xok || !yok {
		return false
	}
	return (xid.Name == name && yid.Name == "nil") || (xid.Name == "nil" && yid.Name == name)
}
