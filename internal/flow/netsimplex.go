package flow

import (
	"context"
	"fmt"
	"math"

	"fbplace/internal/faultsim"
)

// nsFault forces the network simplex to report a stall, driving the
// NS -> successive-shortest-paths fallback of internal/fbp.
var nsFault = faultsim.Register("flow.ns.stall",
	"network simplex reports ErrStalled during the pivot loop")

// ErrStalled is returned by SolveNS when the pivot loop exceeds its cap
// without reaching optimality (cycling or injected stall). The instance is
// NOT known to be infeasible; callers should fall back to the successive
// shortest path solver (Solve), which terminates unconditionally.
type ErrStalled struct {
	// Pivots is the number of pivots performed before giving up.
	Pivots int
}

func (e *ErrStalled) Error() string {
	return fmt.Sprintf("flow: network simplex stalled after %d pivots", e.Pivots)
}

// SolveNS solves the same minimum-cost flow problem as Solve with a
// (sequential) network simplex — the algorithm the paper reports using for
// the FBP MinCostFlow ("computed by a (sequential) NetworkSimplex"). On
// the large grid models of Table I it is orders of magnitude faster than
// successive shortest paths: the zero-cost transit mesh that makes
// Dijkstra-based augmentation churn is handled by plain tree pivots.
//
// Like Solve, it routes all supply (demands may stay unfilled) and returns
// *ErrInfeasible when some supply cannot reach remaining demand. After a
// successful run Flow(id) reports the arc flows.
func (g *MinCostFlow) SolveNS() (float64, error) {
	if g.buildErr != nil {
		return 0, g.buildErr
	}
	g.duals = nil
	n := len(g.adj)
	// Balance the instance: total supply S must equal total demand D.
	// D >= S is the normal case (capacity exceeds cell area): a dummy
	// supply node feeds the leftover demand at zero cost. S > D is
	// impossible to satisfy; route what fits and report infeasible.
	totalSupply, totalDemand := 0.0, 0.0
	for v := 0; v < n; v++ {
		if b := g.supply[v]; b > Eps {
			totalSupply += b
		} else if b < -Eps {
			totalDemand += -b
		}
	}
	ns := &netSimplex{}
	numNodes := n + 2 // + dummy balancer + artificial root
	dummy := n
	root := n + 1
	ns.init(numNodes)
	b := make([]float64, numNodes)
	for v := 0; v < n; v++ {
		b[v] = g.supply[v]
	}
	var dummyArcs []int
	if totalDemand >= totalSupply {
		b[dummy] = totalDemand - totalSupply
		for v := 0; v < n; v++ {
			if g.supply[v] < -Eps {
				ns.addArc(dummy, v, -g.supply[v], 0)
			}
		}
	} else {
		// More supply than demand: the instance cannot route everything.
		// The dummy absorbs the excess at a cost just above any real
		// path, so the simplex still routes as much real flow as possible
		// and the absorbed amount is reported as unrouted below.
		b[dummy] = -(totalSupply - totalDemand)
		spill := (g.maxCost + 1) * float64(n)
		for v := 0; v < n; v++ {
			if g.supply[v] > Eps {
				dummyArcs = append(dummyArcs, ns.addArc(v, dummy, g.supply[v], spill))
			}
		}
	}
	// Real arcs (forward arcs as added by AddArc; adj holds residuals but
	// nothing has been routed yet, so cap is the original capacity).
	realArc := make([]int, len(g.arcPos))
	for id, p := range g.arcPos {
		a := &g.adj[p[0]][p[1]]
		realArc[id] = ns.addArc(int(p[0]), int(a.to), a.cap, a.cost)
	}
	ns.coldInit(b, root, g.maxCost)
	// Publish pivot stats on EVERY exit — success, infeasibility, stall
	// and context aborts alike. A stalled run in particular did real work
	// that the NS->SSP fallback would otherwise hide from observability
	// and the degradation record.
	defer func() {
		g.Pivots = ns.pivots
		g.Obs.Count("ns.pivots", float64(ns.pivots))
	}()
	if err := ns.run(g.Ctx, b, g.maxCost); err != nil {
		return 0, err
	}
	// Infeasibility: artificial root arcs still carrying flow, plus any
	// excess supply the dummy had to absorb. Artificial flows pair up
	// (stranded supply x -> root matches unmet demand root -> y), so only
	// the supply side is counted; the dummy's own artificial arc carries
	// bookkeeping flow, not real supply.
	unrouted := 0.0
	for _, ai := range ns.artificial {
		if int(ns.to[ai]) == root && int(ns.from[ai]) != dummy {
			unrouted += ns.flow[ai]
		}
	}
	for _, ai := range dummyArcs {
		unrouted += ns.flow[ai]
	}
	// Write flows back into the residual structure so Flow(id) works.
	totalCost := 0.0
	for id, p := range g.arcPos {
		f := ns.flow[realArc[id]]
		a := &g.adj[p[0]][p[1]]
		a.cap -= f
		g.adj[a.to][a.rev].cap += f
		if !math.IsInf(a.cost, 1) {
			totalCost += f * a.cost
		}
	}
	if unrouted > 1e-6*math.Max(1, totalSupply) {
		return totalCost, &ErrInfeasible{Unrouted: unrouted}
	}
	// The simplex terminated with no non-tree arc violating its bound's
	// reduced-cost condition beyond Eps*(1+maxCost): ns.pi is a feasible
	// dual certificate for the real-node subproblem.
	g.duals = &Duals{
		Pot:       append([]float64(nil), ns.pi[:n]...),
		Arcs:      len(g.arcPos),
		CostScale: 1 + g.maxCost,
	}
	return totalCost, nil
}

// Arc states of the simplex.
const (
	stateLower = iota
	stateTree
	stateUpper
)

// netSimplex is a primal network simplex over a spanning tree rooted at an
// artificial root. Tree connectivity is kept in parent/children form; each
// pivot re-hangs one subtree and refreshes its potentials by DFS.
type netSimplex struct {
	from, to []int32
	cap      []float64
	cost     []float64
	flow     []float64
	state    []int8

	parent   []int32 // tree parent
	predArc  []int32 // arc connecting v to parent
	predUp   []bool  // true when the arc is directed v -> parent
	children [][]int32
	pi       []float64 // node potentials
	depth    []int32   // tree depth (root 0), maintained by init and pivots

	artificial []int // arc ids of the root arcs
	numNodes   int
	pivots     int
}

func (ns *netSimplex) init(numNodes int) {
	ns.numNodes = numNodes
}

func (ns *netSimplex) addArc(u, v int, capacity, cost float64) int {
	ns.from = append(ns.from, int32(u))
	ns.to = append(ns.to, int32(v))
	ns.cap = append(ns.cap, capacity)
	ns.cost = append(ns.cost, cost)
	ns.flow = append(ns.flow, 0)
	ns.state = append(ns.state, stateLower)
	return len(ns.from) - 1
}

// coldInit builds the classic all-artificial starting tree: every node
// hangs off the root through a big-M arc oriented by the sign of its
// imbalance, which carries exactly that imbalance.
func (ns *netSimplex) coldInit(b []float64, root int, maxCost float64) {
	nn := ns.numNodes
	bigM := (maxCost + 1) * float64(nn)
	ns.parent = make([]int32, nn)
	ns.predArc = make([]int32, nn)
	ns.predUp = make([]bool, nn)
	ns.children = make([][]int32, nn)
	ns.pi = make([]float64, nn)
	ns.depth = make([]int32, nn)
	for v := 0; v < nn; v++ {
		if v == root {
			ns.parent[v] = -1
			ns.predArc[v] = -1
			continue
		}
		var ai int
		if b[v] >= 0 {
			ai = ns.addArc(v, root, Inf, bigM)
			ns.flow[ai] = b[v]
			ns.predUp[v] = true
			ns.pi[v] = -bigM
		} else {
			ai = ns.addArc(root, v, Inf, bigM)
			ns.flow[ai] = -b[v]
			ns.predUp[v] = false
			ns.pi[v] = bigM
		}
		ns.state[ai] = stateTree
		ns.artificial = append(ns.artificial, ai)
		ns.parent[v] = int32(root)
		ns.predArc[v] = int32(ai)
		ns.children[root] = append(ns.children[root], int32(v))
		ns.depth[v] = 1
	}
}

// run executes the pivot loop from the starting tree set up by coldInit;
// b is the (balanced) imbalance vector including the dummy node. A
// non-nil ctx is polled periodically and aborts the run with the
// context's error.
func (ns *netSimplex) run(ctx context.Context, b []float64, maxCost float64) error {
	depth := ns.depth
	m := len(ns.from)
	block := int(math.Sqrt(float64(m))) + 1
	scan := 0
	maxPivots := 200*m + 10000
	if nsDebugCheck != nil {
		// Validate the starting tree too (pivot -1): the all-artificial
		// start must satisfy the same invariants as a pivoted one.
		nsDebugCheck(ns, b, -1)
	}
	for pivot := 0; ; pivot++ {
		if pivot > maxPivots {
			// Cycling guard. This is a solver stall, not an infeasibility
			// certificate: callers fall back to successive shortest paths.
			return &ErrStalled{Pivots: ns.pivots}
		}
		if pivot&1023 == 0 {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if err := nsFault.Check(); err != nil {
				return &ErrStalled{Pivots: ns.pivots}
			}
		}
		// Block search for the entering arc.
		enter := -1
		bestViol := Eps * (1 + maxCost)
		scanned := 0
		for scanned < m {
			end := scan + block
			if end > m {
				end = m
			}
			for ai := scan; ai < end; ai++ {
				if ns.state[ai] == stateTree {
					continue
				}
				rc := ns.cost[ai] + ns.pi[ns.from[ai]] - ns.pi[ns.to[ai]]
				var viol float64
				if ns.state[ai] == stateLower {
					viol = -rc
				} else {
					viol = rc
				}
				if viol > bestViol {
					bestViol = viol
					enter = ai
				}
			}
			scanned += end - scan
			scan = end
			if scan >= m {
				scan = 0
			}
			if enter >= 0 {
				break
			}
		}
		if enter < 0 {
			break // optimal
		}
		ns.pivot(enter, depth)
		ns.pivots++
		if nsDebugCheck != nil {
			nsDebugCheck(ns, b, pivot)
		}
	}
	return nil
}

// residual returns how much flow can be pushed through tree arc ai in the
// direction "down-to-up == up" (true pushes from the arc's from-side).
func (ns *netSimplex) residualDir(ai int32, forward bool) float64 {
	if forward {
		return ns.cap[ai] - ns.flow[ai]
	}
	return ns.flow[ai]
}

// pivot performs one simplex pivot with the given entering arc.
func (ns *netSimplex) pivot(enter int, depth []int32) {
	u, v := ns.from[enter], ns.to[enter]
	// Push direction along the entering arc: lower -> forward (u to v),
	// upper -> backward (v to u).
	forward := ns.state[enter] == stateLower
	src, dst := u, v
	if !forward {
		src, dst = v, u
	}
	// Walk both endpoints up to the join, recording the bottleneck.
	delta := ns.residualDir(int32(enter), forward)
	// Leaving arc bookkeeping: -1 = entering arc itself (state toggle).
	leaveNode := int32(-1) // node whose pred arc leaves (on either path)
	leaveOnSrc := false
	// The cycle runs src -(enter)-> dst -(up to join)-> join -(down)-> src:
	// dst-side tree arcs are traversed child->parent, src-side ones
	// parent->child.
	a, bnode := src, dst
	for a != bnode {
		if depth[a] >= depth[bnode] {
			// Src side: cycle flow runs parent -> child, i.e. with the
			// arc exactly when the arc points down (!predUp).
			ai := ns.predArc[a]
			if res := ns.residualDir(ai, !ns.predUp[a]); res < delta {
				delta = res
				leaveNode = a
				leaveOnSrc = true
			}
			a = ns.parent[a]
		} else {
			// Dst side: cycle flow runs child -> parent.
			ai := ns.predArc[bnode]
			if res := ns.residualDir(ai, ns.predUp[bnode]); res < delta {
				delta = res
				leaveNode = bnode
				leaveOnSrc = false
			}
			bnode = ns.parent[bnode]
		}
	}
	// Apply the flow change around the cycle.
	if delta > 0 {
		if forward {
			ns.flow[enter] += delta
		} else {
			ns.flow[enter] -= delta
		}
		for x := src; x != a; x = ns.parent[x] {
			// Parent -> child traversal: against the arc when it points up.
			if ns.predUp[x] {
				ns.flow[ns.predArc[x]] -= delta
			} else {
				ns.flow[ns.predArc[x]] += delta
			}
		}
		for x := dst; x != a; x = ns.parent[x] {
			// Child -> parent traversal: with the arc when it points up.
			if ns.predUp[x] {
				ns.flow[ns.predArc[x]] += delta
			} else {
				ns.flow[ns.predArc[x]] -= delta
			}
		}
	}
	// Determine the leaving arc.
	if leaveNode < 0 {
		// The entering arc itself blocks: toggle its bound state.
		if ns.state[enter] == stateLower {
			ns.state[enter] = stateUpper
		} else {
			ns.state[enter] = stateLower
		}
		return
	}
	leaveArc := ns.predArc[leaveNode]
	// The leaving arc exits at its bound.
	if ns.flow[leaveArc] <= Eps {
		ns.state[leaveArc] = stateLower
		ns.flow[leaveArc] = 0
	} else {
		ns.state[leaveArc] = stateUpper
		ns.flow[leaveArc] = ns.cap[leaveArc]
	}
	// Re-hang: the subtree cut off by removing leaveArc contains src (if
	// the leaving arc was on the src path) or dst. That subtree is
	// re-rooted at src (resp. dst) and attached through the entering arc.
	var hang int32
	if leaveOnSrc {
		hang = src
	} else {
		hang = dst
	}
	// Reverse the parent chain from hang up to leaveNode.
	type link struct {
		node int32
		arc  int32
		up   bool
	}
	var chain []link
	for x := hang; ; x = ns.parent[x] {
		chain = append(chain, link{node: x, arc: ns.predArc[x], up: ns.predUp[x]})
		if x == leaveNode {
			break
		}
	}
	// Detach leaveNode from its parent.
	ns.removeChild(ns.parent[leaveNode], leaveNode)
	// Reverse: chain[i].node's new parent becomes chain[i-1].node,
	// connected by the arc that previously linked chain[i-1] up to
	// chain[i], with its direction flag flipped for the new child.
	for i := len(chain) - 1; i >= 1; i-- {
		child := chain[i-1].node
		node := chain[i].node
		ns.removeChild(node, child)
		ns.parent[node] = child
		ns.predArc[node] = chain[i-1].arc
		ns.predUp[node] = !chain[i-1].up
		ns.children[child] = append(ns.children[child], node)
	}
	// Attach hang under the other endpoint via the entering arc.
	var attachParent int32
	if leaveOnSrc {
		attachParent = dst
		if forward {
			// entering arc runs src(u) -> dst(v); from hang's (src)
			// perspective the arc points up to the parent.
			ns.predUp[hang] = true
		} else {
			ns.predUp[hang] = false
		}
	} else {
		attachParent = src
		if forward {
			ns.predUp[hang] = false
		} else {
			ns.predUp[hang] = true
		}
	}
	ns.parent[hang] = attachParent
	ns.predArc[hang] = int32(enter)
	ns.children[attachParent] = append(ns.children[attachParent], hang)
	ns.state[enter] = stateTree
	// Refresh potentials and depths of the re-hung subtree by DFS.
	stack := []int32{hang}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := ns.parent[x]
		ai := ns.predArc[x]
		if ns.predUp[x] {
			// arc x -> p: rc 0 => pi[x] = pi[p] - cost
			ns.pi[x] = ns.pi[p] - ns.cost[ai]
		} else {
			ns.pi[x] = ns.pi[p] + ns.cost[ai]
		}
		depth[x] = depth[p] + 1
		stack = append(stack, ns.children[x]...)
	}
}

func (ns *netSimplex) removeChild(parent, child int32) {
	cs := ns.children[parent]
	for i, c := range cs {
		if c == child {
			cs[i] = cs[len(cs)-1]
			ns.children[parent] = cs[:len(cs)-1]
			return
		}
	}
}
