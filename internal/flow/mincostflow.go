package flow

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
)

// sspFault forces the successive-shortest-paths solver to fail at entry.
// Armed together with flow.ns.stall it proves that when the whole solver
// fallback chain is exhausted, the pipeline surfaces a structured error
// instead of a silently wrong placement.
var sspFault = faultsim.Register("flow.ssp.fail",
	"MinCostFlow.Solve (successive shortest paths) fails at entry")

// ArcID identifies an arc of a MinCostFlow instance, as returned by AddArc.
type ArcID int32

type mcfArc struct {
	to   int32
	rev  int32
	cap  float64 // residual capacity
	cost float64
}

// MinCostFlow solves the minimum-cost b-flow problem by successive
// shortest paths with node potentials (Dijkstra). All arc costs must be
// non-negative, which holds for every model in this repository: movement
// costs are L1 distances and external transit edges cost zero.
//
// Node imbalances are set with SetSupply (positive = supply, negative =
// demand). Supplies and demands need not balance: Solve routes all supply
// and reports infeasibility if some supply cannot reach remaining demand,
// which is exactly the feasibility test of paper Theorem 3.
type MinCostFlow struct {
	adj     [][]mcfArc
	supply  []float64
	arcPos  [][2]int32 // ArcID -> (node, index) of the forward arc
	maxCost float64

	// Obs, when non-nil, records the counter "ns.pivots" per SolveNS run.
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled during Solve/SolveNS; a canceled or
	// expired context aborts the solve with the context's error.
	Ctx context.Context
	// Pivots is the number of simplex pivots of the last SolveNS run. It
	// is published on every exit of the pivot loop — including stalls and
	// context aborts — so fallback paths keep the work visible.
	Pivots int

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
	// Pot[v] is the potential of real node v (the nodes that existed when
	// the solve started; solver-internal super/dummy nodes are excluded).
	Pot []float64
	// Arcs is the number of real arcs at solve entry: certificates apply
	// to ArcIDs < Arcs (Solve appends internal supply/demand arcs).
	Arcs int
	// CostScale is 1 + the maximum finite arc cost, the scale on which
	// reduced-cost tolerances are meaningful for this instance.
	CostScale float64
}

// Duals returns the certificate of the most recent successful solve, or
// nil when the last solve failed (or none ran). The slice is owned by the
// instance; callers must not modify it.
func (g *MinCostFlow) Duals() *Duals { return g.duals }

// ArcInfo reports the endpoints, original capacity and cost of arc id.
// Capacity is reconstructed from the residual pair, so it is valid before
// and after a solve.
func (g *MinCostFlow) ArcInfo(id ArcID) (from, to int, capacity, cost float64) {
	p := g.arcPos[id]
	a := g.adj[p[0]][p[1]]
	return int(p[0]), int(a.to), a.cap + g.adj[a.to][a.rev].cap, a.cost
}

// NewMinCostFlow returns an instance with n nodes.
func NewMinCostFlow(n int) *MinCostFlow {
	return &MinCostFlow{
		adj:    make([][]mcfArc, n),
		supply: make([]float64, n),
	}
}

// NumNodes returns the number of nodes.
func (g *MinCostFlow) NumNodes() int { return len(g.adj) }

// NumArcs returns the number of forward arcs added.
func (g *MinCostFlow) NumArcs() int { return len(g.arcPos) }

// AddNode appends a node and returns its index.
func (g *MinCostFlow) AddNode() int {
	g.adj = append(g.adj, nil)
	g.supply = append(g.supply, 0)
	return len(g.adj) - 1
}

// SetSupply sets node v's imbalance: b > 0 is supply, b < 0 demand.
func (g *MinCostFlow) SetSupply(v int, b float64) { g.supply[v] = b }

// AddSupply accumulates into node v's imbalance.
func (g *MinCostFlow) AddSupply(v int, b float64) { g.supply[v] += b }

// Supply returns the imbalance of node v.
func (g *MinCostFlow) Supply(v int) float64 { return g.supply[v] }

// AddArc adds a directed arc u->v with the given capacity (use flow.Inf
// for uncapacitated) and non-negative cost. A negative or NaN cost is a
// model-construction bug (all costs in the placement models are
// distances); it is latched as a build error — returned by BuildErr and by
// the next Solve/SolveNS call — instead of crashing the process, and the
// arc is added with cost 0 so the instance stays structurally consistent.
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
	g.adj[u] = append(g.adj[u], mcfArc{to: int32(v), rev: int32(len(g.adj[v])), cap: capacity, cost: cost})
	g.adj[v] = append(g.adj[v], mcfArc{to: int32(u), rev: int32(len(g.adj[u]) - 1), cap: 0, cost: -cost})
	id := ArcID(len(g.arcPos))
	g.arcPos = append(g.arcPos, [2]int32{int32(u), int32(len(g.adj[u]) - 1)})
	return id
}

// BuildErr returns the first model-construction defect recorded by AddArc
// (nil for a well-formed model).
func (g *MinCostFlow) BuildErr() error { return g.buildErr }

// Flow returns the flow routed on arc id after Solve.
func (g *MinCostFlow) Flow(id ArcID) float64 {
	p := g.arcPos[id]
	a := g.adj[p[0]][p[1]]
	return g.adj[a.to][a.rev].cap
}

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

// Solve routes as much supply as possible to the demands at minimum cost
// and returns the total cost. If some supply cannot be routed it returns
// the cost of the routed part together with an *ErrInfeasible.
//
// Implementation: a super source is connected to all supply nodes and a
// super sink to all demand nodes, then successive shortest augmenting
// paths with Johnson potentials keep every Dijkstra run on non-negative
// reduced costs.
func (g *MinCostFlow) Solve() (float64, error) {
	if g.buildErr != nil {
		return 0, g.buildErr
	}
	if err := sspFault.Check(); err != nil {
		return 0, fmt.Errorf("flow: ssp solve: %w", err)
	}
	g.duals = nil
	n := len(g.adj)
	realArcs := len(g.arcPos)
	s, t := g.AddNode(), g.AddNode()
	totalSupply := 0.0
	for v := 0; v < n; v++ {
		b := g.supply[v]
		if b > Eps {
			g.AddArc(s, v, b, 0)
			totalSupply += b
		} else if b < -Eps {
			g.AddArc(v, t, -b, 0)
		}
	}
	pot := make([]float64, len(g.adj))
	dist := make([]float64, len(g.adj))
	routed := 0.0
	totalCost := 0.0
	iter := make([]int32, len(g.adj))
	onPath := make([]bool, len(g.adj))
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
			for ai := range g.adj[u] {
				a := &g.adj[u][ai]
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
		for i := range iter {
			iter[i] = 0
		}
		pushed := g.blockingFlow(s, t, totalSupply-routed, pot, iter, onPath, &totalCost)
		routed += pushed
		if pushed <= Eps {
			return totalCost, &ErrInfeasible{Unrouted: totalSupply - routed}
		}
	}
	// SSP terminates with every residual arc at non-negative reduced cost
	// under pot, which is exactly dual feasibility; export the certificate.
	g.duals = &Duals{
		Pot:       append([]float64(nil), pot[:n]...),
		Arcs:      realArcs,
		CostScale: 1 + g.maxCost,
	}
	return totalCost, nil
}

// blockingFlow pushes flow from s to t along arcs whose reduced cost under
// pot is (numerically) zero, using an iterative DFS with current-arc
// pointers. It returns the total amount pushed and accumulates arc costs.
func (g *MinCostFlow) blockingFlow(s, t int, limit float64, pot []float64, iter []int32, onPath []bool, totalCost *float64) float64 {
	type frame struct {
		node int32
		arc  int32 // arc taken from the PREVIOUS frame's node to reach this one
	}
	total := 0.0
	// Safety valve: zero-cost cycles can in principle make augmentations
	// cancel each other's saturations; cap the phase and let the next
	// Dijkstra continue (correctness never depends on the blocking flow
	// being complete).
	for rounds := 0; total < limit-Eps && rounds <= 4*len(g.arcPos)+16; rounds++ {
		// DFS from s.
		stack := []frame{{node: int32(s), arc: -1}}
		onPath[s] = true
		found := false
		for len(stack) > 0 && !found {
			u := stack[len(stack)-1].node
			advanced := false
			for ; iter[u] < int32(len(g.adj[u])); iter[u]++ {
				a := &g.adj[u][iter[u]]
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
			a := &g.adj[stack[i-1].node][stack[i].arc]
			if a.cap < push {
				push = a.cap
			}
		}
		for i := 1; i < len(stack); i++ {
			a := &g.adj[stack[i-1].node][stack[i].arc]
			a.cap -= push
			g.adj[a.to][a.rev].cap += push
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
	for id := range g.arcPos {
		p := g.arcPos[id]
		a := g.adj[p[0]][p[1]]
		if !math.IsInf(a.cost, 1) {
			total += g.Flow(ArcID(id)) * a.cost
		}
	}
	return total
}
