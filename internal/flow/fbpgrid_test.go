package flow

import (
	"math"
	"math/rand"
	"testing"
)

// randomGridMCF builds an FBP-shaped instance twice (identical), for
// comparing the two solvers: a k x k window mesh whose opposite arc pairs
// all cost the same (zero in half the instances, so every mesh route
// ties), some of them capacitated; window demands that together exceed
// the supply (with excessSupply, fall short of it); and cell-cluster
// supply nodes, each tied to a few windows by uncapacitated arcs of small
// integer (often equal) movement cost.
func randomGridMCF(seed int64, excessSupply bool) (*MinCostFlow, *MinCostFlow) {
	rng := rand.New(rand.NewSource(seed))
	k := 6 + rng.Intn(19)
	sources := k + rng.Intn(2*k)
	meshCost := 0.0
	if rng.Intn(2) == 0 {
		meshCost = float64(1 + rng.Intn(3))
	}
	finiteFrac := rng.Float64() * 0.5
	g1 := NewMinCostFlow(k*k + sources)
	g2 := NewMinCostFlow(k*k + sources)
	arc := func(u, v int, capacity, cost float64) {
		g1.AddArc(u, v, capacity, cost)
		g2.AddArc(u, v, capacity, cost)
	}
	meshArc := func(u, v int) {
		capacity := Inf
		if rng.Float64() < finiteFrac {
			capacity = float64(2 + rng.Intn(8))
		}
		arc(u, v, capacity, meshCost)
	}
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				meshArc(id(x, y), id(x+1, y))
				meshArc(id(x+1, y), id(x, y))
			}
			if y+1 < k {
				meshArc(id(x, y), id(x, y+1))
				meshArc(id(x, y+1), id(x, y))
			}
		}
	}
	// Window capacities: 1.2-2x the supply in total (0.5-0.95x with
	// excessSupply), spread unevenly.
	supply := make([]float64, sources)
	total := 0.0
	for s := range supply {
		supply[s] = float64(1 + rng.Intn(6))
		total += supply[s]
	}
	weight := make([]float64, k*k)
	sumW := 0.0
	for w := range weight {
		weight[w] = rng.Float64()
		sumW += weight[w]
	}
	lo, hi := 1.2, 2.0
	if excessSupply {
		lo, hi = 0.5, 0.95
	}
	demand := total * (lo + (hi-lo)*rng.Float64())
	for w := range weight {
		b := math.Round(demand*weight[w]/sumW*4) / 4
		g1.SetSupply(w, -b)
		g2.SetSupply(w, -b)
	}
	// Sources cluster in one corner, so the flow must cross the mesh.
	for s, b := range supply {
		v := k*k + s
		g1.SetSupply(v, b)
		g2.SetSupply(v, b)
		x0, y0 := rng.Intn(k/2+1), rng.Intn(k/2+1)
		for t := 0; t < 1+rng.Intn(3); t++ {
			x, y := x0+rng.Intn(2), y0+rng.Intn(2)
			arc(v, id(x, y), Inf, float64(rng.Intn(3)))
		}
	}
	return g1, g2
}

// TestNSMatchesSSPOnFBPGrids checks the simplex against the successive
// shortest path oracle on FBP-shaped instances full of ties, and that it
// stays far from its cycling guard. With excess supply every instance is
// infeasible and the unrouted amounts must agree.
func TestNSMatchesSSPOnFBPGrids(t *testing.T) {
	for _, excess := range []bool{false, true} {
		feasible := 0
		for seed := int64(0); seed < 60; seed++ {
			g1, g2 := randomGridMCF(seed, excess)
			c1, e1 := g1.Solve()
			c2, e2 := g2.SolveNS()
			// The simplex runs over the real arcs plus one artificial arc
			// per node.
			m := g2.NumArcs() + g2.NumNodes()
			if limit := maxPivotsFor(m) / 50; g2.Pivots > limit {
				t.Fatalf("excess %v seed %d: %d pivots, want <= %d (guard %d)", excess, seed, g2.Pivots, limit, maxPivotsFor(m))
			}
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("excess %v seed %d: SSP err %v, NS err %v", excess, seed, e1, e2)
			}
			if e1 != nil {
				i1, ok1 := e1.(*ErrInfeasible)
				i2, ok2 := e2.(*ErrInfeasible)
				if !ok1 || !ok2 || math.Abs(i1.Unrouted-i2.Unrouted) > 1e-6 {
					t.Fatalf("excess %v seed %d: SSP err %v, NS err %v", excess, seed, e1, e2)
				}
				continue
			}
			feasible++
			if math.Abs(c1-c2) > 1e-6*math.Max(1, math.Abs(c1)) {
				t.Fatalf("excess %v seed %d: NS cost %v, SSP cost %v", excess, seed, c2, c1)
			}
		}
		if !excess && feasible < 40 {
			t.Fatalf("only %d of 60 instances feasible; the generator no longer exercises the optimum", feasible)
		}
		if excess && feasible > 0 {
			t.Fatalf("%d of 60 excess-supply instances feasible; the generator no longer exercises the unrouted path", feasible)
		}
	}
}
