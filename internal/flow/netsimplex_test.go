package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
)

func TestNSSimpleTransport(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 4)
	g.SetSupply(1, -3)
	g.SetSupply(2, -2)
	a1 := g.AddArc(0, 1, Inf, 1)
	a2 := g.AddArc(0, 2, Inf, 5)
	cost, err := g.SolveNS()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-8) > 1e-9 {
		t.Fatalf("cost = %v, want 8", cost)
	}
	if math.Abs(g.Flow(a1)-3) > 1e-9 || math.Abs(g.Flow(a2)-1) > 1e-9 {
		t.Fatalf("flows = %v, %v", g.Flow(a1), g.Flow(a2))
	}
}

func TestNSRespectsCapacities(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 10)
	g.SetSupply(2, -10)
	cheap := g.AddArc(0, 2, 4, 1)
	g.AddArc(0, 1, Inf, 1)
	g.AddArc(1, 2, Inf, 3)
	cost, err := g.SolveNS()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Flow(cheap)-4) > 1e-9 {
		t.Fatalf("cheap flow = %v", g.Flow(cheap))
	}
	if math.Abs(cost-28) > 1e-9 {
		t.Fatalf("cost = %v, want 28", cost)
	}
}

func TestNSInfeasible(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 5)
	g.SetSupply(1, -2)
	g.SetSupply(2, -10)
	g.AddArc(0, 1, Inf, 1)
	_, err := g.SolveNS()
	inf, ok := err.(*ErrInfeasible)
	if !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if math.Abs(inf.Unrouted-3) > 1e-6 {
		t.Fatalf("unrouted = %v, want 3", inf.Unrouted)
	}
}

func TestNSExcessDemand(t *testing.T) {
	g := NewMinCostFlow(2)
	g.SetSupply(0, 3)
	g.SetSupply(1, -100)
	g.AddArc(0, 1, Inf, 2)
	cost, err := g.SolveNS()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-6) > 1e-9 {
		t.Fatalf("cost = %v, want 6", cost)
	}
}

func TestNSZeroCostMesh(t *testing.T) {
	// The FBP pathology: a mesh of opposite zero-cost arc pairs between
	// transit-like nodes. The simplex must route through it exactly.
	k := 6
	g := NewMinCostFlow(k * k)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				g.AddArc(id(x, y), id(x+1, y), Inf, 0)
				g.AddArc(id(x+1, y), id(x, y), Inf, 0)
			}
			if y+1 < k {
				g.AddArc(id(x, y), id(x, y+1), Inf, 0)
				g.AddArc(id(x, y+1), id(x, y), Inf, 0)
			}
		}
	}
	g.SetSupply(id(0, 0), 7)
	g.SetSupply(id(k-1, k-1), -7)
	cost, err := g.SolveNS()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("cost = %v, want 0", cost)
	}
}

// buildRandomMCF builds a random instance twice (identical) for comparing
// the two solvers.
func buildRandomMCF(seed int64) (*MinCostFlow, *MinCostFlow) {
	rng := rand.New(rand.NewSource(seed))
	n := 4 + rng.Intn(10)
	g1 := NewMinCostFlow(n)
	g2 := NewMinCostFlow(n)
	supply := 0.0
	for v := 0; v < n/2; v++ {
		b := float64(1 + rng.Intn(5))
		g1.SetSupply(v, b)
		g2.SetSupply(v, b)
		supply += b
	}
	demand := 0.0
	for v := n / 2; v < n; v++ {
		b := float64(1 + rng.Intn(6))
		g1.SetSupply(v, -b)
		g2.SetSupply(v, -b)
		demand += b
	}
	for e := 0; e < 4*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		cp := Inf
		if rng.Intn(3) == 0 {
			cp = float64(1 + rng.Intn(6))
		}
		cost := float64(rng.Intn(8))
		g1.AddArc(u, v, cp, cost)
		g2.AddArc(u, v, cp, cost)
	}
	return g1, g2
}

// Property: network simplex and SSP agree on optimal cost and
// (in)feasibility for random instances.
func TestNSMatchesSSP(t *testing.T) {
	f := func(seed int64) bool {
		g1, g2 := buildRandomMCF(seed)
		c1, e1 := g1.Solve()
		c2, e2 := g2.SolveNS()
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if e1 != nil {
			// Both infeasible: unrouted amounts must agree.
			i1 := e1.(*ErrInfeasible)
			i2 := e2.(*ErrInfeasible)
			return math.Abs(i1.Unrouted-i2.Unrouted) < 1e-6
		}
		return math.Abs(c1-c2) < 1e-6*(1+math.Abs(c1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: NS flows satisfy conservation and capacity constraints.
func TestNSFlowConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 60; trial++ {
		g, _ := buildRandomMCF(rng.Int63())
		type rec struct {
			id   ArcID
			u, v int
			cp   float64
		}
		var arcs []rec
		for id := 0; id < g.NumArcs(); id++ {
			u, v, cp, _ := g.ArcInfo(ArcID(id))
			arcs = append(arcs, rec{ArcID(id), u, v, cp})
		}
		_, err := g.SolveNS()
		if err != nil {
			continue
		}
		n := g.NumNodes()
		bal := make([]float64, n)
		for _, a := range arcs {
			f := g.Flow(a.id)
			if f < -1e-9 || f > a.cp+1e-9 {
				t.Fatalf("trial %d: flow %v outside [0,%v]", trial, f, a.cp)
			}
			bal[a.u] -= f
			bal[a.v] += f
		}
		for v := 0; v < n; v++ {
			b := g.supply[v]
			got := bal[v]
			switch {
			case b > Eps: // supply fully shipped
				if math.Abs(got+b) > 1e-6 {
					t.Fatalf("trial %d: node %d shipped %v, want %v", trial, v, -got, b)
				}
			case b < -Eps: // demand filled at most -b
				if got < -1e-6 || got > -b+1e-6 {
					t.Fatalf("trial %d: node %d received %v, demand %v", trial, v, got, -b)
				}
			default:
				if math.Abs(got) > 1e-6 {
					t.Fatalf("trial %d: transit node %d imbalance %v", trial, v, got)
				}
			}
		}
	}
}

// gridMCF builds a k x k zero-cost-mesh grid with k supplies and k
// demands of supplyScale each, the FBP-shaped instance; every mesh arc
// has cost arcCost and capacity arcCap.
func gridMCF(k int, supplyScale float64, arcCost, arcCap float64) *MinCostFlow {
	g := NewMinCostFlow(k * k)
	id := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			if x+1 < k {
				g.AddArc(id(x, y), id(x+1, y), arcCap, arcCost)
				g.AddArc(id(x+1, y), id(x, y), arcCap, arcCost)
			}
			if y+1 < k {
				g.AddArc(id(x, y), id(x, y+1), arcCap, arcCost)
				g.AddArc(id(x, y+1), id(x, y), arcCap, arcCost)
			}
		}
	}
	for i := 0; i < k; i++ {
		g.SetSupply(id(i%5, i/5), supplyScale)
		g.SetSupply(id(k-1-i%5, k-1-i/5), -supplyScale)
	}
	return g
}

func BenchmarkNSGrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := gridMCF(30, 1, 1, Inf)
		if _, err := g.SolveNS(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNSInvariantsPerPivot validates the full simplex invariants
// (conservation, bounds, zero reduced cost on tree arcs, the thread-indexed
// tree arrays, strong feasibility) after every pivot of several random
// instances, the last few of them FBP-shaped grids, four of those with
// excess supply.
func TestNSInvariantsPerPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	defer func() { nsDebugCheck = nil }()
	for trial := 0; trial < 52; trial++ {
		g, _ := buildRandomMCF(rng.Int63())
		if trial >= 40 {
			g, _ = randomGridMCF(int64(trial), trial >= 48)
		}
		nsDebugCheck = func(ns *netSimplex, b []float64, pivotNo int) {
			if err := nsValidate(ns, b, pivotNo); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		g.SolveNS()
	}
}

func TestNSEmptyInstance(t *testing.T) {
	g := NewMinCostFlow(3)
	g.AddArc(0, 1, Inf, 2)
	cost, err := g.SolveNS()
	if err != nil || cost != 0 {
		t.Fatalf("cost=%v err=%v, want 0,nil", cost, err)
	}
}

func TestNSSelfBalancedZero(t *testing.T) {
	// Supplies exactly matching demands through one arc chain.
	g := NewMinCostFlow(3)
	g.SetSupply(0, 2)
	g.SetSupply(2, -2)
	a := g.AddArc(0, 1, Inf, 1)
	b := g.AddArc(1, 2, Inf, 1)
	cost, err := g.SolveNS()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 4 || g.Flow(a) != 2 || g.Flow(b) != 2 {
		t.Fatalf("cost=%v flows=%v,%v", cost, g.Flow(a), g.Flow(b))
	}
}

// Regression: pivot stats must be published on the ErrStalled exit too —
// a stalled run did real work that its span must still report.
func TestNSStatsPublishedOnStall(t *testing.T) {
	defer faultsim.Reset()
	// Skip the entry check (pivot 0); fire at the second cadence check
	// (pivot 1024), after real pivot work has happened.
	if err := faultsim.Arm("flow.ns.stall", faultsim.Schedule{After: 1}); err != nil {
		t.Fatal(err)
	}
	g := gridMCF(30, 1, 1, Inf) // ~1500 pivots when run to optimality
	g.Obs = obs.New(nil)
	_, err := g.SolveNS()
	stall, ok := err.(*ErrStalled)
	if !ok {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
	if g.Pivots < 1024 {
		t.Fatalf("g.Pivots = %d after stall, want >= 1024 (stats lost on error exit)", g.Pivots)
	}
	if got := g.Obs.Counter("ns.pivots"); got != float64(g.Pivots) {
		t.Fatalf("ns.pivots counter = %v, want %d", got, g.Pivots)
	}
	if got := g.Obs.Counter("ns.priced"); got != float64(g.Priced) || g.Priced < g.Pivots {
		t.Fatalf("ns.priced counter = %v, g.Priced = %d, want equal and >= %d pivots", got, g.Priced, g.Pivots)
	}
	if stall.Pivots != g.Pivots {
		t.Fatalf("ErrStalled.Pivots = %d, g.Pivots = %d", stall.Pivots, g.Pivots)
	}
}

// Pivot stats must also be published on the ErrInfeasible exit.
func TestNSStatsPublishedOnInfeasible(t *testing.T) {
	g := gridMCF(8, 4, 1, 1)
	g.Obs = obs.New(nil)
	_, err := g.SolveNS()
	if _, ok := err.(*ErrInfeasible); !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if g.Pivots <= 0 {
		t.Fatalf("g.Pivots = %d after infeasible solve, want > 0", g.Pivots)
	}
	if got := g.Obs.Counter("ns.pivots"); got != float64(g.Pivots) {
		t.Fatalf("ns.pivots counter = %v, want %d", got, g.Pivots)
	}
	if got := g.Obs.Counter("ns.priced"); got != float64(g.Priced) || g.Priced < g.Pivots {
		t.Fatalf("ns.priced counter = %v, g.Priced = %d, want equal and >= %d pivots", got, g.Priced, g.Pivots)
	}
}
