// Package flow implements the network-flow substrate of the placer: a
// minimum-cost-flow instance with two engines. A network simplex (SolveNS)
// solves the global FBP model of §IV.A. A successive-shortest-path solver
// with node potentials (Solve) is the network simplex's fallback, the
// reference engine of internal/transport, and the movebound feasibility
// check of paper Theorems 1 and 2 (internal/region): with zero-cost arcs
// it routes as much supply as the capacities admit and reports the rest as
// ErrInfeasible.Unrouted. The local transportation steps of §III/§IV.B run
// on transport's condensed engine.
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
	"container/heap"
	"context"
	"fmt"
	"math"

	"fbplace/internal/obs"
)

// Eps is the tolerance below which residual capacities and imbalances are
// treated as zero.
const Eps = 1e-9

// Inf is the capacity used for uncapacitated arcs.
var Inf = math.Inf(1)

// ArcID identifies an arc of a MinCostFlow instance, as returned by AddArc.
type ArcID int32

// MinCostFlow solves the minimum-cost b-flow problem, by network simplex
// (SolveNS) or by successive shortest paths with node potentials (Solve).
// All arc costs must be non-negative, which holds for every model in this
// repository: movement costs are L1 distances and external transit edges
// cost zero.
//
// Node imbalances are set with SetSupply (positive = supply, negative =
// demand). Supplies and demands need not balance: the solvers route all
// supply and report infeasibility if some supply cannot reach remaining
// demand, which is exactly the feasibility test of paper Theorem 3.
//
// The instance is one flat arc store indexed by ArcID: endpoints,
// capacity, cost and the flow of the last solve. SolveNS pivots on that
// store in place; Solve builds its residual graph from it at entry.
type MinCostFlow struct {
	from, to []int32
	cap      []float64
	cost     []float64
	flow     []float64
	supply   []float64
	maxCost  float64

	// Obs, when non-nil, records the counters "ns.pivots",
	// "ns.degenerate" (pivots with zero flow change) and "ns.priced"
	// (arcs priced by the entering-arc search) per SolveNS run.
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled during Solve/SolveNS; a canceled or
	// expired context aborts the solve with the context's error.
	Ctx context.Context
	// Pivots is the number of simplex pivots of the last SolveNS run. It
	// is published on every exit of the pivot loop — including stalls and
	// context aborts — so fallback paths keep the work visible.
	Pivots int
	// Degenerate is the number of those pivots that changed no flow,
	// published on the same exits as Pivots.
	Degenerate int
	// Priced is the number of arcs the entering-arc search of the last
	// SolveNS run priced, published on the same exits as Pivots.
	Priced int

	// buildErr latches the first model-construction defect (negative arc
	// cost). Solve and SolveNS refuse to run a defective model, so the
	// error propagates through every caller without AddArc needing a
	// multi-value signature at each of its dozens of call sites.
	buildErr error

	// duals holds the optimality certificate of the last successful solve
	// (either engine); cleared at solve entry so a failed run never leaves
	// a stale certificate behind.
	duals *Duals
}

// Duals is the optimality certificate exported by a successful Solve or
// SolveNS run: the node potentials (dual variables) of the min-cost-flow
// LP, over which an independent checker can verify dual feasibility and
// complementary slackness (paper Theorem 3 conditions) without trusting
// the solver's own exit criteria.
type Duals struct {
	// Pot[v] is the potential of real node v (Solve's super source and
	// sink and SolveNS's artificial root are excluded).
	Pot []float64
	// Arcs is the number of real arcs at solve entry: certificates apply
	// to ArcIDs < Arcs.
	Arcs int
	// CostScale is 1 + the maximum finite arc cost, the scale on which
	// reduced-cost tolerances are meaningful for this instance.
	CostScale float64
}

// Duals returns the certificate of the most recent successful solve, or
// nil when the last solve failed (or none ran). The slice is owned by the
// instance; callers must not modify it.
func (g *MinCostFlow) Duals() *Duals { return g.duals }

// ArcInfo reports the endpoints, capacity and cost of arc id.
func (g *MinCostFlow) ArcInfo(id ArcID) (from, to int, capacity, cost float64) {
	return int(g.from[id]), int(g.to[id]), g.cap[id], g.cost[id]
}

// NewMinCostFlow returns an instance with n nodes.
func NewMinCostFlow(n int) *MinCostFlow {
	return &MinCostFlow{supply: make([]float64, n)}
}

// NumNodes returns the number of nodes.
func (g *MinCostFlow) NumNodes() int { return len(g.supply) }

// NumArcs returns the number of arcs added.
func (g *MinCostFlow) NumArcs() int { return len(g.from) }

// AddNode appends a node and returns its index.
func (g *MinCostFlow) AddNode() int {
	g.supply = append(g.supply, 0)
	return len(g.supply) - 1
}

// SetSupply sets node v's imbalance: b > 0 is supply, b < 0 demand.
func (g *MinCostFlow) SetSupply(v int, b float64) { g.supply[v] = b }

// Supply returns the imbalance of node v.
func (g *MinCostFlow) Supply(v int) float64 { return g.supply[v] }

// AddArc adds a directed arc u->v with the given capacity (use flow.Inf
// for uncapacitated) and non-negative cost. A negative or NaN cost is a
// model-construction bug (all costs in the placement models are
// distances); it is latched as a build error, returned by the next
// Solve/SolveNS call, instead of crashing the process, and the arc is
// added with cost 0 so the instance stays structurally consistent.
func (g *MinCostFlow) AddArc(u, v int, capacity, cost float64) ArcID {
	if cost < 0 || math.IsNaN(cost) {
		if g.buildErr == nil {
			g.buildErr = fmt.Errorf("flow: invalid arc cost %g on arc %d->%d", cost, u, v)
		}
		cost = 0
	}
	if cost > g.maxCost && !math.IsInf(cost, 1) {
		g.maxCost = cost
	}
	id := ArcID(len(g.from))
	g.from = append(g.from, int32(u))
	g.to = append(g.to, int32(v))
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
	g.flow = append(g.flow, 0)
	return id
}

// Flow returns the flow routed on arc id by the last solve.
func (g *MinCostFlow) Flow(id ArcID) float64 { return g.flow[id] }

// ErrInfeasible is returned by Solve when the supplies cannot be routed to
// the demands — for the FBP model this certifies (Theorem 3) that no
// fractional placement respecting the movebounds exists.
type ErrInfeasible struct {
	// Unrouted is the amount of supply that could not reach any demand.
	Unrouted float64
}

func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("flow: infeasible instance, %g supply unrouted", e.Unrouted)
}

type pqItem struct {
	node int32
	dist float64
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// residualArc is one arc of Solve's residual graph: a stored arc or its
// reverse (cost negated), or a super source/sink arc.
type residualArc struct {
	to   int32
	rev  int32 // index of the partner arc
	cap  float64
	cost float64
}

// residualGraph is the adjacency of Solve in compressed form: node v's
// residual arcs are arcs[start[v]:start[v+1]].
type residualGraph struct {
	start []int32
	arcs  []residualArc
	fwd   []int32 // stored ArcID -> index of its forward residual arc
}

// residual builds Solve's residual graph over the stored arcs at zero
// flow, plus super source s -> supply node and demand node -> super sink
// t arcs after them, in node order. Every node lists its residual arcs in
// arc order, a forward arc at its tail and its reverse at its head, so the
// searches below visit them in the order the arcs were added.
func (g *MinCostFlow) residual(s, t int) *residualGraph {
	n, m := len(g.supply), len(g.from)
	// eachArc visits the stored arcs, then the super arcs.
	eachArc := func(visit func(u, v int32, capacity, cost float64)) {
		for id := 0; id < m; id++ {
			visit(g.from[id], g.to[id], g.cap[id], g.cost[id])
		}
		for v := 0; v < n; v++ {
			if b := g.supply[v]; b > Eps {
				visit(int32(s), int32(v), b, 0)
			} else if b < -Eps {
				visit(int32(v), int32(t), -b, 0)
			}
		}
	}
	r := &residualGraph{start: make([]int32, n+3), fwd: make([]int32, m)}
	eachArc(func(u, v int32, _, _ float64) {
		r.start[u+1]++
		r.start[v+1]++
	})
	for v := 1; v < len(r.start); v++ {
		r.start[v] += r.start[v-1]
	}
	r.arcs = make([]residualArc, r.start[n+2])
	next := append([]int32(nil), r.start[:n+2]...)
	id := 0
	eachArc(func(u, v int32, capacity, cost float64) {
		fi, ri := next[u], next[v]
		next[u]++
		next[v]++
		r.arcs[fi] = residualArc{to: v, rev: ri, cap: capacity, cost: cost}
		r.arcs[ri] = residualArc{to: u, rev: fi, cost: -cost}
		if id < m {
			r.fwd[id] = fi
		}
		id++
	})
	return r
}

// Solve routes as much supply as possible to the demands at minimum cost
// and returns the total cost. If some supply cannot be routed it returns
// the cost of the routed part together with an *ErrInfeasible.
//
// Implementation: a super source is connected to all supply nodes and a
// super sink to all demand nodes in a residual graph built at entry, then
// successive shortest augmenting paths with Johnson potentials keep every
// Dijkstra run on non-negative reduced costs. The instance itself gains
// no nodes or arcs; the routed flows are written to the arc store on
// every exit.
func (g *MinCostFlow) Solve() (float64, error) {
	if g.buildErr != nil {
		return 0, g.buildErr
	}
	g.duals = nil
	n := len(g.supply)
	s, t := n, n+1
	r := g.residual(s, t)
	defer func() {
		for id, fi := range r.fwd {
			g.flow[id] = r.arcs[r.arcs[fi].rev].cap
		}
	}()
	totalSupply := 0.0
	for v := 0; v < n; v++ {
		if b := g.supply[v]; b > Eps {
			totalSupply += b
		}
	}
	nodes := n + 2
	pot := make([]float64, nodes)
	dist := make([]float64, nodes)
	routed := 0.0
	totalCost := 0.0
	iter := make([]int32, nodes)
	onPath := make([]bool, nodes)
	for totalSupply-routed > Eps {
		// One augmentation round is bounded work, so polling the context
		// here keeps the abort latency proportional to a single Dijkstra
		// plus blocking flow.
		if g.Ctx != nil {
			if err := g.Ctx.Err(); err != nil {
				return totalCost, err
			}
		}
		// Dijkstra on reduced costs from s (full run: the blocking-flow
		// phase below needs distances to every node on shortest paths).
		for i := range dist {
			dist[i] = Inf
		}
		dist[s] = 0
		pq := priorityQueue{{node: int32(s)}}
		for len(pq) > 0 {
			it := heap.Pop(&pq).(pqItem)
			u := it.node
			if it.dist > dist[u]+Eps {
				continue
			}
			for ai := r.start[u]; ai < r.start[u+1]; ai++ {
				a := &r.arcs[ai]
				if a.cap <= Eps {
					continue
				}
				rc := a.cost + pot[u] - pot[a.to]
				if rc < 0 {
					rc = 0 // numerical guard; exact potentials keep rc >= 0
				}
				nd := dist[u] + rc
				if nd+Eps < dist[a.to] {
					dist[a.to] = nd
					heap.Push(&pq, pqItem{node: a.to, dist: nd})
				}
			}
		}
		if math.IsInf(dist[t], 1) {
			return totalCost, &ErrInfeasible{Unrouted: totalSupply - routed}
		}
		for i := range pot {
			// Unreachable nodes keep dist[t] (the standard Johnson fix);
			// they can never rejoin an augmenting path, but this keeps all
			// stored potentials finite.
			pot[i] += math.Min(dist[i], dist[t])
		}
		// Blocking-flow phase (Dinic-style SSP): with the updated
		// potentials every arc on a shortest s-t path has reduced cost 0.
		// A DFS with current-arc pointers pushes flow along such
		// admissible arcs until no augmenting path remains, so one
		// Dijkstra serves many saturations. onPath guards against the
		// zero-cost cycles the model contains (opposite external edges).
		copy(iter, r.start)
		pushed := r.blockingFlow(s, t, totalSupply-routed, pot, iter, onPath, &totalCost)
		routed += pushed
		if pushed <= Eps {
			return totalCost, &ErrInfeasible{Unrouted: totalSupply - routed}
		}
	}
	// SSP terminates with every residual arc at non-negative reduced cost
	// under pot, which is exactly dual feasibility; export the certificate.
	g.duals = &Duals{
		Pot:       append([]float64(nil), pot[:n]...),
		Arcs:      len(g.from),
		CostScale: 1 + g.maxCost,
	}
	return totalCost, nil
}

// blockingFlow pushes flow from s to t along arcs whose reduced cost under
// pot is (numerically) zero, using an iterative DFS with current-arc
// pointers. It returns the total amount pushed and accumulates arc costs.
func (r *residualGraph) blockingFlow(s, t int, limit float64, pot []float64, iter []int32, onPath []bool, totalCost *float64) float64 {
	type frame struct {
		node int32
		arc  int32 // arc taken from the PREVIOUS frame's node to reach this one
	}
	total := 0.0
	// Safety valve: zero-cost cycles can in principle make augmentations
	// cancel each other's saturations; cap the phase (at four rounds per
	// arc, two per residual arc) and let the next Dijkstra continue
	// (correctness never depends on the blocking flow being complete).
	for rounds := 0; total < limit-Eps && rounds <= 2*len(r.arcs)+16; rounds++ {
		// DFS from s.
		stack := []frame{{node: int32(s), arc: -1}}
		onPath[s] = true
		found := false
		for len(stack) > 0 && !found {
			u := stack[len(stack)-1].node
			advanced := false
			for ; iter[u] < r.start[u+1]; iter[u]++ {
				a := &r.arcs[iter[u]]
				if a.cap <= Eps || onPath[a.to] {
					continue
				}
				rc := a.cost + pot[u] - pot[a.to]
				if rc > Eps || rc < -Eps {
					continue
				}
				// Take the arc.
				stack = append(stack, frame{node: a.to, arc: iter[u]})
				onPath[a.to] = true
				advanced = true
				if a.to == int32(t) {
					found = true
				}
				break
			}
			if !advanced && !found {
				// Retreat: this node is exhausted for the phase.
				onPath[u] = false
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := &stack[len(stack)-1]
					iter[p.node]++ // skip the arc that led to the dead end
				}
			}
		}
		if !found {
			for _, f := range stack {
				onPath[f.node] = false
			}
			break
		}
		// Bottleneck and push along the stack path.
		push := limit - total
		for i := 1; i < len(stack); i++ {
			a := &r.arcs[stack[i].arc]
			if a.cap < push {
				push = a.cap
			}
		}
		for i := 1; i < len(stack); i++ {
			a := &r.arcs[stack[i].arc]
			a.cap -= push
			r.arcs[a.rev].cap += push
			*totalCost += push * a.cost
		}
		total += push
		for _, f := range stack {
			onPath[f.node] = false
		}
	}
	return total
}

// Cost recomputes the total cost of the current flow from scratch
// (diagnostics and tests).
func (g *MinCostFlow) Cost() float64 {
	total := 0.0
	for id, c := range g.cost {
		if !math.IsInf(c, 1) {
			total += g.flow[id] * c
		}
	}
	return total
}
