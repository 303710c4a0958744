package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// maxFlow routes a maximum s-t flow the way the feasibility checks of
// internal/region do: zero-cost arcs, a supply at s above every cut, an
// equal demand at snk, and the routed amount read as the supply minus
// what Solve reports unrouted.
func maxFlow(t *testing.T, g *MinCostFlow, s, snk int) float64 {
	t.Helper()
	total := 1.0 // above every cut
	for id := 0; id < g.NumArcs(); id++ {
		_, _, c, _ := g.ArcInfo(ArcID(id))
		total += c
	}
	g.SetSupply(s, total)
	g.SetSupply(snk, -total)
	if _, err := g.Solve(); err != nil {
		var inf *ErrInfeasible
		if !errors.As(err, &inf) {
			t.Fatal(err)
		}
		return total - inf.Unrouted
	}
	return total
}

func TestMaxFlowSimplePath(t *testing.T) {
	g := NewMinCostFlow(3)
	a := g.AddArc(0, 1, 5, 0)
	b := g.AddArc(1, 2, 3, 0)
	if got := maxFlow(t, g, 0, 2); got != 3 {
		t.Fatalf("max flow = %v, want 3", got)
	}
	if g.Flow(a) != 3 || g.Flow(b) != 3 {
		t.Fatalf("arc flows = %v, %v", g.Flow(a), g.Flow(b))
	}
}

func TestMaxFlowDiamond(t *testing.T) {
	//   0 -> 1 -> 3
	//   0 -> 2 -> 3 with a cross arc 1->2
	g := NewMinCostFlow(4)
	g.AddArc(0, 1, 10, 0)
	g.AddArc(0, 2, 4, 0)
	g.AddArc(1, 2, 6, 0)
	g.AddArc(1, 3, 5, 0)
	g.AddArc(2, 3, 9, 0)
	if got := maxFlow(t, g, 0, 3); got != 14 {
		t.Fatalf("max flow = %v, want 14", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewMinCostFlow(4)
	g.AddArc(0, 1, 5, 0)
	g.AddArc(2, 3, 5, 0)
	if got := maxFlow(t, g, 0, 3); got != 0 {
		t.Fatalf("max flow = %v, want 0", got)
	}
}

func TestMaxFlowFractionalCapacities(t *testing.T) {
	g := NewMinCostFlow(3)
	g.AddArc(0, 1, 2.5, 0)
	g.AddArc(0, 1, 0.25, 0)
	g.AddArc(1, 2, 10, 0)
	if got := maxFlow(t, g, 0, 2); math.Abs(got-2.75) > 1e-9 {
		t.Fatalf("max flow = %v, want 2.75", got)
	}
}

// Property: the maximum flow equals the value of a brute-force min cut on
// small random graphs (max-flow = min-cut).
func TestMaxFlowMatchesMinCut(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(4)
		if !checkMaxFlowMinCut(t, rng, n) {
			t.Fatalf("seed %d: maxflow != mincut", seed)
		}
	}
}

func checkMaxFlowMinCut(t *testing.T, rng *rand.Rand, n int) bool {
	type arc struct {
		u, v int
		c    float64
	}
	var arcs []arc
	g := NewMinCostFlow(n)
	for i := 0; i < 3*n; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := float64(1 + rng.Intn(9))
		arcs = append(arcs, arc{u, v, c})
		g.AddArc(u, v, c, 0)
	}
	val := maxFlow(t, g, 0, n-1)
	// Brute-force min cut over all subsets containing source 0, not sink.
	best := math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		if mask&1 == 0 || mask&(1<<(n-1)) != 0 {
			continue
		}
		cut := 0.0
		for _, a := range arcs {
			if mask&(1<<a.u) != 0 && mask&(1<<a.v) == 0 {
				cut += a.c
			}
		}
		if cut < best {
			best = cut
		}
	}
	return math.Abs(val-best) < 1e-6
}

func TestMCFSimpleTransport(t *testing.T) {
	// One supply node (b=4), two demand nodes (-3, -2). Cheap sink first.
	g := NewMinCostFlow(3)
	g.SetSupply(0, 4)
	g.SetSupply(1, -3)
	g.SetSupply(2, -2)
	a1 := g.AddArc(0, 1, Inf, 1)
	a2 := g.AddArc(0, 2, Inf, 5)
	cost, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-(3*1+1*5)) > 1e-9 {
		t.Fatalf("cost = %v, want 8", cost)
	}
	if math.Abs(g.Flow(a1)-3) > 1e-9 || math.Abs(g.Flow(a2)-1) > 1e-9 {
		t.Fatalf("flows = %v, %v", g.Flow(a1), g.Flow(a2))
	}
}

func TestMCFRespectsCapacities(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 10)
	g.SetSupply(2, -10)
	cheap := g.AddArc(0, 2, 4, 1) // capacity 4 on the cheap arc
	expensive := g.AddArc(0, 1, Inf, 1)
	g.AddArc(1, 2, Inf, 3)
	cost, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Flow(cheap)-4) > 1e-9 {
		t.Fatalf("cheap flow = %v, want 4", g.Flow(cheap))
	}
	if math.Abs(g.Flow(expensive)-6) > 1e-9 {
		t.Fatalf("expensive flow = %v", g.Flow(expensive))
	}
	if math.Abs(cost-(4*1+6*4)) > 1e-9 {
		t.Fatalf("cost = %v, want 28", cost)
	}
}

func TestMCFInfeasible(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 5)
	g.SetSupply(1, -2) // reachable demand too small
	g.SetSupply(2, -10)
	g.AddArc(0, 1, Inf, 1) // node 2 unreachable
	_, err := g.Solve()
	inf, ok := err.(*ErrInfeasible)
	if !ok {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if math.Abs(inf.Unrouted-3) > 1e-9 {
		t.Fatalf("unrouted = %v, want 3", inf.Unrouted)
	}
}

func TestMCFExcessDemandOK(t *testing.T) {
	// More demand than supply is fine: all supply routed.
	g := NewMinCostFlow(2)
	g.SetSupply(0, 3)
	g.SetSupply(1, -100)
	g.AddArc(0, 1, Inf, 2)
	cost, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-6) > 1e-9 {
		t.Fatalf("cost = %v, want 6", cost)
	}
}

func TestMCFZeroCostTransitChain(t *testing.T) {
	// Mirrors the FBP external edges: a chain of zero-cost arcs between
	// transit nodes, demand at the far end.
	g := NewMinCostFlow(4)
	g.SetSupply(0, 7)
	g.SetSupply(3, -7)
	g.AddArc(0, 1, Inf, 2)
	g.AddArc(1, 2, Inf, 0)
	g.AddArc(2, 3, Inf, 0)
	cost, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-14) > 1e-9 {
		t.Fatalf("cost = %v", cost)
	}
}

func TestMCFNegativeCostBuildError(t *testing.T) {
	g := NewMinCostFlow(2)
	g.SetSupply(0, 1)
	g.SetSupply(1, -1)
	g.AddArc(0, 1, 1, -1)
	if _, err := g.Solve(); err == nil {
		t.Fatal("Solve accepted a model with a negative arc cost")
	}
	if _, err := g.SolveNS(); err == nil {
		t.Fatal("SolveNS accepted a model with a negative arc cost")
	}
	// NaN costs are model-construction bugs too.
	g2 := NewMinCostFlow(2)
	g2.AddArc(0, 1, 1, math.NaN())
	if _, err := g2.Solve(); err == nil {
		t.Fatal("Solve accepted a model with a NaN arc cost")
	}
}

// Property: on random transportation instances the SSP solution matches a
// brute-force enumeration over unit assignments.
func TestMCFMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nSrc := 1 + rng.Intn(3)
		nSnk := 1 + rng.Intn(3)
		supplies := make([]int, nSrc)
		units := 0
		for i := range supplies {
			supplies[i] = 1 + rng.Intn(3)
			units += supplies[i]
		}
		caps := make([]int, nSnk)
		remaining := units
		for i := range caps {
			caps[i] = 1 + rng.Intn(4)
			remaining -= caps[i]
		}
		if remaining > 0 {
			caps[0] += remaining // ensure feasibility
		}
		costs := make([][]float64, nSrc)
		for i := range costs {
			costs[i] = make([]float64, nSnk)
			for j := range costs[i] {
				costs[i][j] = float64(rng.Intn(10))
			}
		}
		g := NewMinCostFlow(nSrc + nSnk)
		for i, s := range supplies {
			g.SetSupply(i, float64(s))
		}
		for j, c := range caps {
			g.SetSupply(nSrc+j, -float64(c))
		}
		for i := 0; i < nSrc; i++ {
			for j := 0; j < nSnk; j++ {
				g.AddArc(i, nSrc+j, Inf, costs[i][j])
			}
		}
		got, err := g.Solve()
		if err != nil {
			return false
		}
		want := bruteTransport(supplies, caps, costs)
		return math.Abs(got-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// bruteTransport enumerates all unit-by-unit assignments.
func bruteTransport(supplies, caps []int, costs [][]float64) float64 {
	type unit struct{ src int }
	var units []unit
	for i, s := range supplies {
		for k := 0; k < s; k++ {
			units = append(units, unit{i})
		}
	}
	used := make([]int, len(caps))
	best := math.Inf(1)
	var rec func(u int, acc float64)
	rec = func(u int, acc float64) {
		if acc >= best {
			return
		}
		if u == len(units) {
			best = acc
			return
		}
		for j := range caps {
			if used[j] < caps[j] {
				used[j]++
				rec(u+1, acc+costs[units[u].src][j])
				used[j]--
			}
		}
	}
	rec(0, 0)
	return best
}

// Property: flow conservation holds at every intermediate node.
func TestMCFConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 6 + rng.Intn(6)
		g := NewMinCostFlow(n)
		g.SetSupply(0, 10)
		g.SetSupply(n-1, -10)
		type rec struct {
			id   ArcID
			u, v int
		}
		var arcs []rec
		for i := 0; i < 4*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			id := g.AddArc(u, v, float64(1+rng.Intn(5)), float64(rng.Intn(6)))
			arcs = append(arcs, rec{id, u, v})
		}
		_, err := g.Solve()
		if err != nil {
			continue // infeasible random instance; fine
		}
		bal := make([]float64, n)
		for _, a := range arcs {
			f := g.Flow(a.id)
			if f < -1e-9 {
				t.Fatalf("negative flow %v", f)
			}
			bal[a.u] -= f
			bal[a.v] += f
		}
		for v := 0; v < n; v++ {
			want := -g.Supply(v)
			if v != 0 && v != n-1 {
				want = 0
			}
			if math.Abs(bal[v]-want) > 1e-6 {
				t.Fatalf("trial %d: node %d balance %v, want %v", trial, v, bal[v], want)
			}
		}
	}
}

func TestMCFCostRecompute(t *testing.T) {
	g := NewMinCostFlow(3)
	g.SetSupply(0, 4)
	g.SetSupply(2, -4)
	g.AddArc(0, 1, Inf, 1)
	g.AddArc(1, 2, Inf, 2)
	cost, err := g.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cost-g.Cost()) > 1e-9 {
		t.Fatalf("Solve cost %v != recomputed %v", cost, g.Cost())
	}
}

func BenchmarkMCFGrid(b *testing.B) {
	// A k x k grid of transit-like nodes with supplies in one corner and
	// demands in the other; representative of the FBP model topology.
	k := 30
	build := func() *MinCostFlow {
		g := NewMinCostFlow(k * k)
		id := func(x, y int) int { return y*k + x }
		for y := 0; y < k; y++ {
			for x := 0; x < k; x++ {
				if x+1 < k {
					g.AddArc(id(x, y), id(x+1, y), Inf, 1)
					g.AddArc(id(x+1, y), id(x, y), Inf, 1)
				}
				if y+1 < k {
					g.AddArc(id(x, y), id(x, y+1), Inf, 1)
					g.AddArc(id(x, y+1), id(x, y), Inf, 1)
				}
			}
		}
		for i := 0; i < k; i++ {
			g.SetSupply(id(i%5, i/5), 1)
			g.SetSupply(id(k-1-i%5, k-1-i/5), -1)
		}
		return g
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := build()
		if _, err := g.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
