package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// SpanEnd enforces the observability contract of internal/obs: every span
// returned by Recorder.StartSpan must be ended, or the summary tree
// silently loses the phase and its children. The check is a pragmatic
// dominance approximation: a span assigned to a local variable
// must have at least one `sp.End()` call on that variable somewhere in the
// same file (a `defer sp.End()` is the canonical form; explicit calls on
// every return path also satisfy it). Discarding the result outright —
// `rec.StartSpan("x")` as a statement or assigning it to `_` — is always
// an error. Spans that escape (returned, stored in a struct field, passed
// as an argument) are assumed ended by their new owner and skipped.
//
// The obs package itself and _test.go files are exempt: tests deliberately
// leave spans dangling to probe the recorder's edge cases.
var SpanEnd = &Analyzer{
	Name:      "spanend",
	Directive: "spanok",
	Doc: "requires every obs.Recorder.StartSpan result " +
		"to reach an End() call (defer sp.End() or explicit calls); " +
		"suppress intentionally unended spans with //fbpvet:spanok <reason>",
	Run: runSpanEnd,
}

func runSpanEnd(p *Pass) {
	if p.Pkg.Name() == "obs" {
		return
	}
	for _, f := range p.Files {
		if p.IsTestFile(f) {
			continue
		}
		// Pass 1: every object that receives an End() call in this file.
		ended := map[types.Object]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "End" || !isObsMethod(p, sel) {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := p.Info.Uses[id]; obj != nil {
					ended[obj] = true
				}
			}
			return true
		})
		// Pass 2: every StartSpan call site, classified by how
		// its result is consumed.
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok && isSpanStart(p, call) {
					p.Reportf(call.Pos(), "result of %s is discarded; the span is never ended", startName(call))
				}
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 || len(st.Lhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok || !isSpanStart(p, call) {
					return true
				}
				id, ok := st.Lhs[0].(*ast.Ident)
				if !ok {
					return true // escapes into a field/index; owner ends it
				}
				if id.Name == "_" {
					p.Reportf(call.Pos(), "result of %s is assigned to _; the span is never ended", startName(call))
					return true
				}
				obj := p.Info.Defs[id]
				if obj == nil {
					obj = p.Info.Uses[id]
				}
				if obj != nil && !ended[obj] {
					p.Reportf(call.Pos(), "span %s from %s is never ended; add defer %s.End()", id.Name, startName(call), id.Name)
				}
			}
			return true
		})
	}
}

// isSpanStart reports whether call invokes obs's StartSpan.
func isSpanStart(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "StartSpan" {
		return false
	}
	return isObsMethod(p, sel)
}

// isObsMethod reports whether the selected function is a method defined in
// the obs package (internal/obs or a fixture stand-in named obs).
func isObsMethod(p *Pass, sel *ast.SelectorExpr) bool {
	obj := p.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return fn.Pkg().Name() == "obs" || strings.HasSuffix(path, "/obs")
}

func startName(call *ast.CallExpr) string {
	return types.ExprString(call.Fun)
}
