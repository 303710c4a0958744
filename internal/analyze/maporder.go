package analyze

import (
	"go/ast"
	"go/types"
)

// solverPackages are the packages whose computations feed placement
// results. Any map iteration there can leak Go's randomized map hash into
// cell coordinates and break run-to-run determinism — the property the
// 1-vs-N-worker tests and the paper's placer comparisons depend on.
var solverPackages = map[string]bool{
	"fbp":       true,
	"region":    true,
	"grid":      true,
	"legalize":  true,
	"transport": true,
	"flow":      true,
	"qp":        true,
	"placer":    true,
	"detail":    true,
}

// MapOrder flags `for … range` over map-typed values inside solver
// packages. Keyed lookups and accumulation into maps are fine — only
// iteration observes the randomized order. Commutative iterations
// (deleting every entry, building a slice that is sorted immediately
// after) carry a //fbpvet:orderok directive with the reason.
var MapOrder = &Analyzer{
	Name:      "maporder",
	Directive: "orderok",
	Doc: "flags range-over-map in solver packages (" + solverPackageList() + "): " +
		"map iteration order is randomized per process and makes placement " +
		"results irreproducible; iterate a sorted key slice instead, or mark " +
		"provably order-independent loops with //fbpvet:orderok <reason>",
	Run: runMapOrder,
}

func solverPackageList() string {
	// Stable order for the doc string.
	return "fbp, region, grid, legalize, transport, flow, qp, placer, detail"
}

func runMapOrder(p *Pass) {
	if !solverPackages[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := p.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); isMap {
				p.Reportf(rs.Pos(), "range over map %s: iteration order is nondeterministic in solver code; iterate sorted keys or annotate //fbpvet:orderok", types.ExprString(rs.X))
			}
			return true
		})
	}
}
