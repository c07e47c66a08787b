// Package steppoint enforces the crash-matrix labeling convention of
// the HI table protocol (internal/hihash): every atomic write to a
// group word — the CAS words whose intermediate states the
// E23 adversary crashes into — must be mapped to a labeled Steppoint,
// i.e. its success path must call stepAt, so internal/faultinject's
// (steppoint, occurrence) Kill matrix covers the new window. A protocol
// CAS that deliberately carries no label (a cancel that restores the
// exact pre-protocol word, a pre-publication initialization) must say
// so with an explicit annotation:
//
//	//hilint:allow steppoint (reason)
//
// The analyzer is what stops crash-matrix coverage from rotting as
// displace.go's CAS sites grow: a new unlabeled site is an error, not a
// reviewer's memory.
package steppoint

import (
	"go/ast"

	"hiconc/internal/hilint/analysis"
)

// Analyzer is the steppoint check.
var Analyzer = &analysis.Analyzer{
	Name: "steppoint",
	Doc:  "atomic writes to HI group words must map to a labeled Steppoint (stepAt on the success path) or carry an explicit exemption",
	Run:  run,
}

// atomicWriters are the mutating methods of atomic.Uint64 /
// atomic.Pointer the protocol uses; Load is the only reader and is
// exempt by construction.
var atomicWriters = map[string]bool{
	"CompareAndSwap": true,
	"Store":          true,
	"Swap":           true,
	"Add":            true,
}

// wordFields are the struct fields holding the HI memory representation:
// tableState.groups. Any atomic write whose receiver reaches through one
// of these is a protocol step.
var wordFields = map[string]bool{
	"groups": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Name != "hihash" {
		// The convention is the HI table's: other packages may name
		// fields "groups" without their atomics being protocol steps.
		return nil
	}
	for _, f := range pass.Pkg.Files {
		if f.Test {
			// Tests craft adversarial words directly (whitebox fixtures);
			// the convention governs the protocol implementation only.
			continue
		}
		for _, decl := range f.AST.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, f, fn)
		}
	}
	return nil
}

// checkFunc flags unmapped atomic writes to word arrays inside fn.
func checkFunc(pass *analysis.Pass, f *analysis.File, fn *ast.FuncDecl) {
	tainted := taintedVars(fn.Body)
	analysis.Inspect(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !atomicWriters[sel.Sel.Name] {
			return true
		}
		if !touchesWordArray(sel.X, tainted) {
			return true
		}
		if mappedToSteppoint(call, stack) {
			return true
		}
		pass.Reportf(f, call.Pos(),
			"atomic %s on a group word has no Steppoint: call stepAt on the success path (so the E23 crash matrix covers the window) or annotate //hilint:allow steppoint (reason)",
			sel.Sel.Name)
		return true
	})
}

// taintedVars collects local variables bound to a group word
// (e.g. g := &st.groups[i]), so writes through the alias are caught too.
func taintedVars(body *ast.BlockStmt) map[string]bool {
	tainted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if touchesWordArray(rhs, nil) {
				tainted[id.Name] = true
			}
		}
		return true
	})
	return tainted
}

// touchesWordArray reports whether expr reaches into a groups element —
// an index into a selector named groups, or (when tainted is non-nil) a
// local alias of one.
func touchesWordArray(expr ast.Expr, tainted map[string]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if sel, ok := n.X.(*ast.SelectorExpr); ok && wordFields[sel.Sel.Name] {
				found = true
			}
		case *ast.Ident:
			if tainted != nil && tainted[n.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// mappedToSteppoint reports whether the atomic-write call's success path
// calls stepAt. The two shapes the protocol uses:
//
//	if w.CompareAndSwap(old, new) { stepAt(...); ... }   // body is the success path
//	if !w.CompareAndSwap(old, new) { ...; continue }     // fallthrough is the success path
//	stepAt(...)
func mappedToSteppoint(call *ast.CallExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	parent := stack[len(stack)-1]

	// Direct condition: if CAS(...) { ... }
	if ifs, ok := parent.(*ast.IfStmt); ok && ifs.Cond == ast.Expr(call) {
		return callsStepAt(ifs.Body)
	}

	// Negated condition: if !CAS(...) { ... } ; success continues below.
	if un, ok := parent.(*ast.UnaryExpr); ok && un.Op.String() == "!" && un.X == ast.Expr(call) {
		if len(stack) < 2 {
			return false
		}
		ifs, ok := stack[len(stack)-2].(*ast.IfStmt)
		if !ok || ifs.Cond != ast.Expr(un) {
			return false
		}
		if len(stack) < 3 {
			return false
		}
		var stmts []ast.Stmt
		switch blk := stack[len(stack)-3].(type) {
		case *ast.BlockStmt:
			stmts = blk.List
		case *ast.CaseClause:
			stmts = blk.Body
		case *ast.CommClause:
			stmts = blk.Body
		default:
			return false
		}
		after := false
		for _, st := range stmts {
			if st == ast.Stmt(ifs) {
				after = true
				continue
			}
			if after && callsStepAt(st) {
				return true
			}
		}
		return false
	}
	return false
}

// callsStepAt reports whether node contains a call to stepAt.
func callsStepAt(node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "stepAt" {
				found = true
			}
		}
		return !found
	})
	return found
}
