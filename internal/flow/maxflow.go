// Package flow implements the network-flow substrate of the placer:
// a Dinic maximum-flow solver (movebound feasibility checks, paper
// Theorems 1 and 2), a network simplex that solves the global FBP model of
// §IV.A (SolveNS), and a successive-shortest-path minimum-cost-flow solver
// with node potentials (Solve). The successive-shortest-path solver is the
// network simplex's fallback and the reference engine of
// internal/transport; the local transportation steps of §III/§IV.B run on
// transport's condensed engine.
//
// A MinCostFlow is one flat arc store indexed by ArcID (endpoints,
// capacity, cost, flow). SolveNS pivots on that store in place, with its
// artificial root arcs appended past the real arcs for the length of a
// run, and its block pricing encodes arc states as -1 (lower bound),
// 0 (tree) and +1 (upper bound), so an arc's violation is its state times
// its reduced cost. Solve builds its own residual graph, super source and
// sink included, at entry and leaves the instance's nodes and arcs as
// they were.
//
// Capacities and costs are float64 because the commodity being shipped is
// cell *area*; an epsilon of 1e-9 (relative to the instance scale) is used
// as the saturation tolerance throughout.
package flow

import (
	"math"

	"fbplace/internal/obs"
)

// Eps is the tolerance below which residual capacities and imbalances are
// treated as zero.
const Eps = 1e-9

// Inf is the capacity used for uncapacitated arcs.
var Inf = math.Inf(1)

type maxArc struct {
	to  int32
	rev int32 // index of reverse arc in adj[to]
	cap float64
}

// MaxFlow is a Dinic maximum-flow solver over a fixed node set.
type MaxFlow struct {
	adj   [][]maxArc
	level []int32
	iter  []int32

	// Obs, when non-nil, records counters "dinic.phases" and
	// "dinic.augments" per Solve run.
	Obs *obs.Recorder
	// Augments is the number of augmenting paths of the last Solve run.
	Augments int
}

// NewMaxFlow returns a solver with n nodes and no arcs.
func NewMaxFlow(n int) *MaxFlow {
	return &MaxFlow{
		adj:   make([][]maxArc, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
}

// NumNodes returns the number of nodes.
func (g *MaxFlow) NumNodes() int { return len(g.adj) }

// AddArc adds a directed arc from u to v with the given capacity and
// returns an opaque handle usable with Flow after solving.
func (g *MaxFlow) AddArc(u, v int, capacity float64) (handle [2]int32) {
	g.adj[u] = append(g.adj[u], maxArc{to: int32(v), rev: int32(len(g.adj[v])), cap: capacity})
	g.adj[v] = append(g.adj[v], maxArc{to: int32(u), rev: int32(len(g.adj[u]) - 1), cap: 0})
	return [2]int32{int32(u), int32(len(g.adj[u]) - 1)}
}

// Flow returns the flow on the arc identified by handle after Solve.
// It equals the residual capacity of the reverse arc.
func (g *MaxFlow) Flow(handle [2]int32) float64 {
	a := g.adj[handle[0]][handle[1]]
	return g.adj[a.to][a.rev].cap
}

func (g *MaxFlow) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := make([]int32, 0, len(g.adj))
	queue = append(queue, int32(s))
	g.level[s] = 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if a.cap > Eps && g.level[a.to] < 0 {
				g.level[a.to] = g.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *MaxFlow) dfs(u, t int32, f float64) float64 {
	if u == t {
		return f
	}
	for ; g.iter[u] < int32(len(g.adj[u])); g.iter[u]++ {
		a := &g.adj[u][g.iter[u]]
		if a.cap > Eps && g.level[a.to] == g.level[u]+1 {
			d := g.dfs(a.to, t, math.Min(f, a.cap))
			if d > Eps {
				a.cap -= d
				g.adj[a.to][a.rev].cap += d
				return d
			}
		}
	}
	return 0
}

// Solve computes the maximum s-t flow value. It may be called once per
// graph (capacities are consumed in place).
func (g *MaxFlow) Solve(s, t int) float64 {
	total := 0.0
	g.Augments = 0
	phases := 0
	for g.bfs(s, t) {
		phases++
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(int32(s), int32(t), Inf)
			if f <= Eps {
				break
			}
			total += f
			g.Augments++
		}
	}
	g.Obs.Count("dinic.phases", float64(phases))
	g.Obs.Count("dinic.augments", float64(g.Augments))
	return total
}
