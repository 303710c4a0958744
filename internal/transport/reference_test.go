package transport

import (
	"errors"
	"fmt"

	"fbplace/internal/flow"
)

// SolveReference solves the instance exactly with the generic min-cost
// flow solver: successive shortest paths on the full bipartite network,
// the oracle of the condensed engine's tests. One extra overflow
// node, fed by every sink at the overflow price, absorbs all supply the
// capacities cannot.
func SolveReference(p *Problem) (*Solution, error) {
	n, k := p.NumSources(), p.NumSinks()
	g := flow.NewMinCostFlow(n + k)
	g.Ctx = p.Ctx
	total := 0.0
	for i, s := range p.Supply {
		if s <= 0 {
			return nil, fmt.Errorf("transport: source %d has non-positive supply %g", i, s)
		}
		g.SetSupply(i, s)
		total += s
	}
	for j, c := range p.Capacity {
		g.SetSupply(n+j, -c)
	}
	over := g.AddNode()
	g.SetSupply(over, -total)
	price := overflowPrice(p)
	spill := make([]flow.ArcID, k) // sink -> overflow node arcs
	for j := range spill {
		spill[j] = g.AddArc(n+j, over, flow.Inf, price)
	}
	ids := make([][]flow.ArcID, n)
	for i, arcs := range p.Arcs {
		ids[i] = make([]flow.ArcID, len(arcs))
		for t, a := range arcs {
			ids[i][t] = g.AddArc(i, n+a.Sink, flow.Inf, a.Cost)
		}
	}
	if _, err := g.Solve(); err != nil {
		var inf *flow.ErrInfeasible
		if errors.As(err, &inf) {
			return nil, fmt.Errorf("%w: %g unrouted", ErrInfeasible, inf.Unrouted)
		}
		return nil, err
	}
	// The solver's cost prices the overflow; the plan reports movement
	// only, summed below.
	sol := &Solution{Assign: make([][]Portion, n), Overflow: make([]float64, k)}
	for j, id := range spill {
		if f := g.Flow(id); f > flow.Eps {
			sol.Overflow[j] = f
		}
	}
	for i, arcs := range p.Arcs {
		for t, a := range arcs {
			f := g.Flow(ids[i][t])
			if f > flow.Eps {
				sol.Assign[i] = append(sol.Assign[i], Portion{Sink: a.Sink, Amount: f})
				sol.Cost += f * a.Cost
			}
		}
		sortPortions(sol.Assign[i])
	}
	return sol, nil
}
