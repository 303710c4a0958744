package flow

import (
	"context"
	"fmt"
	"math"
	"slices"

	"fbplace/internal/faultsim"
)

// nsFault forces the network simplex to report a stall, which fails the
// FBP level that solves the global MCF (internal/fbp).
var nsFault = faultsim.Register("flow.ns.stall",
	"network simplex reports ErrStalled during the pivot loop")

// nsDebugCheck, when set, validates the simplex invariants after every
// pivot (tests only; quadratic cost).
var nsDebugCheck func(ns *netSimplex, b []float64, pivotNo int)

// ErrStalled is returned by SolveNS when the pivot loop exceeds its cap
// without reaching optimality (cycling or injected stall). The instance is
// NOT known to be infeasible. The FBP placer returns it as the level's
// error; no measured run has hit the cap.
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
// *ErrInfeasible when some supply cannot reach remaining demand. The
// simplex runs over the real nodes plus one artificial root that balances
// the instance (see coldInit), on the arc store in place: the root arcs
// sit past the real arcs for the length of the run, and the real arcs'
// flows are the solution. A stalled or aborted run leaves every flow 0.
func (g *MinCostFlow) SolveNS() (float64, error) {
	if g.buildErr != nil {
		return 0, g.buildErr
	}
	g.duals = nil
	n, m := len(g.supply), len(g.from)
	root := n
	// The root takes the imbalance b[root] = D - S, of either sign.
	b := make([]float64, n+1)
	totalSupply := 0.0
	for v := 0; v < n; v++ {
		b[v] = g.supply[v]
		b[root] -= b[v]
		if b[v] > Eps {
			totalSupply += b[v]
		}
	}
	// One root arc per real node follows the real arcs; grow the store
	// once so coldInit appends them in place.
	g.from = slices.Grow(g.from, n)
	g.to = slices.Grow(g.to, n)
	g.cap = slices.Grow(g.cap, n)
	g.cost = slices.Grow(g.cost, n)
	g.flow = slices.Grow(g.flow, n)
	clear(g.flow)
	ns := &netSimplex{
		from: g.from, to: g.to, cap: g.cap, cost: g.cost, flow: g.flow,
		state:    make([]int8, m, m+n),
		numNodes: n + 1,
	}
	for ai := range ns.state {
		ns.state[ai] = stateLower
	}
	ns.coldInit(b, root, g.maxCost)
	// Publish pivot stats on EVERY exit — success, infeasibility, stall
	// and context aborts alike. A stalled run in particular did real work
	// that its span must still report.
	defer func() {
		g.Pivots = ns.pivots
		g.Degenerate = ns.degenerate
		g.Priced = ns.priced
		g.Obs.Count("ns.pivots", float64(ns.pivots))
		g.Obs.Count("ns.degenerate", float64(ns.degenerate))
		g.Obs.Count("ns.priced", float64(ns.priced))
	}()
	if err := ns.run(g.Ctx, b, g.maxCost); err != nil {
		clear(g.flow)
		return 0, err
	}
	// Infeasibility: supply that reached no demand is left on the big-M
	// up-arcs into the root, whether S <= D or S > D.
	unrouted := 0.0
	for ai := m; ai < m+n; ai++ {
		if int(ns.to[ai]) == root {
			unrouted += ns.flow[ai]
		}
	}
	totalCost := 0.0
	for id, f := range g.flow {
		if c := g.cost[id]; !math.IsInf(c, 1) {
			totalCost += f * c
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
		Arcs:      m,
		CostScale: 1 + g.maxCost,
	}
	return totalCost, nil
}

// Arc states of the simplex, signed so that the violation of an arc's
// reduced-cost condition is state * reduced cost: an arc at its lower
// bound violates when its reduced cost is negative, one at its upper
// bound when it is positive, and a tree arc never.
const (
	stateLower int8 = -1
	stateTree  int8 = 0
	stateUpper int8 = 1
)

// netSimplex is a primal network simplex over a spanning tree rooted at an
// artificial root, kept in the thread-indexed form of LEMON's
// NetworkSimplex (Kelly & O'Neill). Besides parent/predArc/predUp every
// node stores its successor in a preorder walk of the tree (thread, one
// cycle through all nodes starting at the root), the inverse of that
// order (revThread), its subtree size (succNum) and the last node of its
// subtree in thread order (lastSucc). A subtree is then the thread segment
// from v to lastSucc[v], so a pivot re-hangs it by splicing the thread and
// refreshes its potentials by one constant shift.
type netSimplex struct {
	// The arc arrays alias MinCostFlow's arc store: the real arcs, then
	// the root arcs coldInit appends.
	from, to []int32
	cap      []float64
	cost     []float64
	flow     []float64
	state    []int8

	parent    []int32   // tree parent (-1 at the root)
	predArc   []int32   // arc connecting v to parent
	predUp    []bool    // true when the arc is directed v -> parent
	thread    []int32   // next node in tree preorder (cyclic, root first)
	revThread []int32   // previous node in tree preorder
	succNum   []int32   // number of nodes in v's subtree, v included
	lastSucc  []int32   // last node of v's subtree in thread order
	pi        []float64 // node potentials

	// Per-pivot state, named as in LEMON: the entering arc's cycle closes
	// at join; the leaving arc is predArc[uOut]; the cut-off subtree is
	// re-hung at uIn under vIn through the entering arc; delta is the
	// flow change around the cycle.
	join, uIn, vIn, uOut int32
	delta                float64
	leaveLower           bool    // the leaving arc exits at its lower bound
	dirtyRevs            []int32 // thread entries rewritten by a re-hang

	numNodes   int
	pivots     int
	degenerate int // pivots with zero flow change
	priced     int // arcs priced by the entering-arc search
}

func (ns *netSimplex) addArc(u, v int, capacity, cost, flow float64) int {
	ns.from = append(ns.from, int32(u))
	ns.to = append(ns.to, int32(v))
	ns.cap = append(ns.cap, capacity)
	ns.cost = append(ns.cost, cost)
	ns.flow = append(ns.flow, flow)
	ns.state = append(ns.state, stateTree)
	return len(ns.from) - 1
}

// coldInit builds the starting tree, with the artificial root as the
// balancer (b[root] = D - S), as LEMON's NetworkSimplex does for supply
// inequalities. A demand node hangs down on a zero-cost root arc capped at
// its demand and saturated by it, at potential 0; every other node hangs
// up on an uncapacitated big-M arc carrying its supply, at potential -M.
// Every zero-flow tree arc then points at the root and every saturated one
// away from it, so the tree is strongly feasible. The cap keeps a demand
// node from passing root flow on along zero-cost out-arcs. The thread
// visits the root, then the other nodes in index order; the root arcs are
// appended in the same order.
func (ns *netSimplex) coldInit(b []float64, root int, maxCost float64) {
	nn := ns.numNodes
	bigM := (maxCost + 1) * float64(nn)
	ns.parent = make([]int32, nn)
	ns.predArc = make([]int32, nn)
	ns.predUp = make([]bool, nn)
	ns.thread = make([]int32, nn)
	ns.revThread = make([]int32, nn)
	ns.succNum = make([]int32, nn)
	ns.lastSucc = make([]int32, nn)
	ns.pi = make([]float64, nn)
	prev := int32(root)
	for v := 0; v < nn; v++ {
		if v == root {
			continue
		}
		var ai int
		if b[v] < 0 {
			ai = ns.addArc(root, v, -b[v], 0, -b[v])
		} else {
			ai = ns.addArc(v, root, Inf, bigM, b[v])
			ns.predUp[v] = true
			ns.pi[v] = -bigM
		}
		ns.parent[v] = int32(root)
		ns.predArc[v] = int32(ai)
		ns.succNum[v] = 1
		ns.lastSucc[v] = int32(v)
		ns.thread[prev] = int32(v)
		ns.revThread[v] = prev
		prev = int32(v)
	}
	ns.parent[root] = -1
	ns.predArc[root] = -1
	ns.thread[prev] = int32(root)
	ns.revThread[root] = prev
	ns.succNum[root] = int32(nn)
	ns.lastSucc[root] = prev
}

// maxPivotsFor is the cycling guard of run for a simplex over m arcs
// (artificial arcs included): far above what any terminating run needs.
func maxPivotsFor(m int) int { return 200*m + 10000 }

// run executes the pivot loop from the starting tree set up by coldInit;
// b is the (balanced) imbalance vector including the root. A
// non-nil ctx is polled periodically and aborts the run with the
// context's error.
func (ns *netSimplex) run(ctx context.Context, b []float64, maxCost float64) error {
	m := len(ns.from)
	block := int(math.Sqrt(float64(m))) + 1
	scan := 0
	maxPivots := maxPivotsFor(m)
	if nsDebugCheck != nil {
		// Validate the starting tree too (pivot -1): it must satisfy the
		// same invariants as a pivoted one.
		nsDebugCheck(ns, b, -1)
	}
	for pivot := 0; ; pivot++ {
		if pivot > maxPivots {
			// Cycling guard. This is a solver stall, not an infeasibility
			// certificate.
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
		// Block search for the entering arc: the most violating arc of
		// the first block that holds one.
		enter := -1
		bestViol := Eps * (1 + maxCost)
		scanned := 0
		for scanned < m {
			end := scan + block
			if end > m {
				end = m
			}
			if ai, viol := ns.priceBlock(scan, end, bestViol); ai >= 0 {
				enter, bestViol = ai, viol
			}
			ns.priced += end - scan
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
		ns.pivot(enter)
		ns.pivots++
		if nsDebugCheck != nil {
			nsDebugCheck(ns, b, pivot)
		}
	}
	return nil
}

// priceBlock returns the arc of [lo, hi) whose violation
// state * (cost + pi[from] - pi[to]) is largest and exceeds best, with
// that violation, or -1 when none does. Multiplying by the signed state
// negates exactly and scores a tree arc 0, so the scan needs no branch on
// the state and picks the arc a per-state test would.
func (ns *netSimplex) priceBlock(lo, hi int, best float64) (int, float64) {
	enter := -1
	state, cost := ns.state[lo:hi], ns.cost[lo:hi]
	from, to := ns.from[lo:hi], ns.to[lo:hi]
	pi := ns.pi
	for i := range state {
		viol := float64(state[i]) * (cost[i] + pi[from[i]] - pi[to[i]])
		if viol > best {
			best = viol
			enter = lo + i
		}
	}
	return enter, best
}

// pivot performs one simplex pivot with the given entering arc.
func (ns *netSimplex) pivot(enter int) {
	ns.findJoinNode(enter)
	change := ns.findLeavingArc(enter)
	ns.changeFlow(enter, change)
	if change {
		ns.updateTreeStructure(enter)
		ns.updatePotential(enter)
	}
}

// findJoinNode finds the apex of the entering arc's cycle: the deepest
// common ancestor of its endpoints. Subtree sizes grow strictly towards
// the root, so the endpoint with the smaller subtree climbs first.
func (ns *netSimplex) findJoinNode(enter int) {
	u, v := ns.from[enter], ns.to[enter]
	for u != v {
		if ns.succNum[u] < ns.succNum[v] {
			u = ns.parent[u]
		} else {
			v = ns.parent[v]
		}
	}
	ns.join = u
}

// findLeavingArc finds the bottleneck delta of the entering arc's cycle
// and the arc that leaves the tree, by Cunningham's strongly-feasible
// rule: the last blocking arc met when walking the cycle in its flow
// direction from the join. The cycle runs join -> first -(enter)->
// second -> join; ties on the first side keep the arc nearest first (<),
// ties on the second side the arc nearest the join (<=). It reports
// false when the entering arc itself blocks, which then only changes
// bound.
func (ns *netSimplex) findLeavingArc(enter int) bool {
	first, second := ns.from[enter], ns.to[enter]
	if ns.state[enter] == stateUpper {
		first, second = second, first
	}
	ns.delta = ns.cap[enter]
	side := 0
	// First side: the cycle flow runs parent -> child, against an arc
	// that points up.
	for u := first; u != ns.join; u = ns.parent[u] {
		ai := ns.predArc[u]
		res := ns.flow[ai]
		if !ns.predUp[u] {
			res = ns.cap[ai] - res
		}
		if res < ns.delta {
			ns.delta, ns.uOut, side = res, u, 1
			ns.leaveLower = ns.predUp[u]
		}
	}
	// Second side: the cycle flow runs child -> parent, with an arc that
	// points up.
	for u := second; u != ns.join; u = ns.parent[u] {
		ai := ns.predArc[u]
		res := ns.flow[ai]
		if ns.predUp[u] {
			res = ns.cap[ai] - res
		}
		if res <= ns.delta {
			ns.delta, ns.uOut, side = res, u, 2
			ns.leaveLower = !ns.predUp[u]
		}
	}
	if side == 1 {
		ns.uIn, ns.vIn = first, second
	} else {
		ns.uIn, ns.vIn = second, first
	}
	return side != 0
}

// changeFlow pushes delta around the cycle and updates the entering and
// leaving arcs' states; the leaving arc is snapped exactly onto the bound
// it reached.
func (ns *netSimplex) changeFlow(enter int, change bool) {
	if ns.delta > 0 {
		val := ns.delta
		if ns.state[enter] == stateUpper {
			val = -val
		}
		ns.flow[enter] += val
		for u := ns.from[enter]; u != ns.join; u = ns.parent[u] {
			if ns.predUp[u] {
				ns.flow[ns.predArc[u]] -= val
			} else {
				ns.flow[ns.predArc[u]] += val
			}
		}
		for u := ns.to[enter]; u != ns.join; u = ns.parent[u] {
			if ns.predUp[u] {
				ns.flow[ns.predArc[u]] += val
			} else {
				ns.flow[ns.predArc[u]] -= val
			}
		}
	} else {
		ns.degenerate++
	}
	if !change {
		// The entering arc itself blocks: toggle its bound state.
		if ns.state[enter] == stateLower {
			ns.state[enter] = stateUpper
		} else {
			ns.state[enter] = stateLower
		}
		return
	}
	ns.state[enter] = stateTree
	leave := ns.predArc[ns.uOut]
	if ns.leaveLower {
		ns.state[leave] = stateLower
		ns.flow[leave] = 0
	} else {
		ns.state[leave] = stateUpper
		ns.flow[leave] = ns.cap[leave]
	}
}

// updateTreeStructure replaces the leaving arc by the entering arc: the
// subtree cut off below uOut is re-rooted at uIn (the stem from uIn up to
// uOut reverses its parent links) and hung under vIn. The thread is
// spliced so the re-rooted subtree follows vIn directly, and succNum and
// lastSucc are repaired along the stem and on both paths to the join.
func (ns *netSimplex) updateTreeStructure(enter int) {
	parent, thread, revThread := ns.parent, ns.thread, ns.revThread
	succNum, lastSucc := ns.succNum, ns.lastSucc
	uIn, vIn, uOut, join := ns.uIn, ns.vIn, ns.uOut, ns.join
	oldRevThread := revThread[uOut]
	oldSuccNum := succNum[uOut]
	oldLastSucc := lastSucc[uOut]
	vOut := parent[uOut]

	if uIn == uOut {
		// The subtree moves as a whole: relink it and, unless it already
		// follows vIn, splice its thread segment in after vIn.
		parent[uIn] = vIn
		ns.predArc[uIn] = int32(enter)
		ns.predUp[uIn] = uIn == ns.from[enter]
		if thread[vIn] != uOut {
			after := thread[oldLastSucc]
			thread[oldRevThread] = after
			revThread[after] = oldRevThread
			after = thread[vIn]
			thread[vIn] = uOut
			revThread[uOut] = vIn
			thread[oldLastSucc] = after
			revThread[after] = oldLastSucc
		}
	} else {
		// When oldRevThread is vIn (so vOut is the join), the segment
		// after the re-hung subtree is what followed uOut's subtree.
		threadContinue := thread[vIn]
		if oldRevThread == vIn {
			threadContinue = thread[oldLastSucc]
		}
		// Walk the stem from uIn up to uOut: each stem node, with its
		// subtree minus the stem child already moved, is appended to the
		// new thread segment and its parent link reversed.
		stem, parStem := uIn, vIn
		last := lastSucc[uIn]
		after := thread[last]
		thread[vIn] = uIn
		ns.dirtyRevs = append(ns.dirtyRevs[:0], vIn)
		for stem != uOut {
			nextStem := parent[stem]
			thread[last] = nextStem
			ns.dirtyRevs = append(ns.dirtyRevs, last)
			// Unlink stem's subtree from its old place in the thread.
			before := revThread[stem]
			thread[before] = after
			revThread[after] = before
			parent[stem] = parStem
			parStem, stem = stem, nextStem
			if lastSucc[stem] == lastSucc[parStem] {
				last = revThread[parStem]
			} else {
				last = lastSucc[stem]
			}
			after = thread[last]
		}
		parent[uOut] = parStem
		thread[last] = threadContinue
		revThread[threadContinue] = last
		lastSucc[uOut] = last
		if oldRevThread != vIn {
			thread[oldRevThread] = after
			revThread[after] = oldRevThread
		}
		for _, u := range ns.dirtyRevs {
			revThread[thread[u]] = u
		}
		// Down the reversed stem from uOut to uIn: each node takes over
		// its new child's old pred arc (flipped), its subtree loses the
		// part that now hangs above it, and all share one last successor.
		sc, ls := int32(0), lastSucc[uOut]
		for u, p := uOut, parent[uOut]; u != uIn; u, p = p, parent[p] {
			ns.predArc[u] = ns.predArc[p]
			ns.predUp[u] = !ns.predUp[p]
			sc += succNum[u] - succNum[p]
			succNum[u] = sc
			lastSucc[p] = ls
		}
		ns.predArc[uIn] = int32(enter)
		ns.predUp[uIn] = uIn == ns.from[enter]
		succNum[uIn] = oldSuccNum
	}

	// lastSucc from vIn towards the root: ancestors whose subtree ended
	// at vIn now end where the re-hung subtree ends.
	upLimitOut := int32(-1)
	if lastSucc[join] == vIn {
		upLimitOut = join
	}
	lastSuccOut := lastSucc[uOut]
	for u := vIn; u != -1 && lastSucc[u] == vIn; u = parent[u] {
		lastSucc[u] = lastSuccOut
	}
	// lastSucc from vOut towards the root: ancestors whose subtree ended
	// with the removed subtree now end just before it.
	if join != oldRevThread && vIn != oldRevThread {
		for u := vOut; u != upLimitOut && lastSucc[u] == oldLastSucc; u = parent[u] {
			lastSucc[u] = oldRevThread
		}
	} else if lastSuccOut != oldLastSucc {
		for u := vOut; u != upLimitOut && lastSucc[u] == oldLastSucc; u = parent[u] {
			lastSucc[u] = lastSuccOut
		}
	}
	for u := vIn; u != join; u = parent[u] {
		succNum[u] += oldSuccNum
	}
	for u := vOut; u != join; u = parent[u] {
		succNum[u] -= oldSuccNum
	}
}

// updatePotential restores zero reduced cost on the entering arc by
// shifting the re-hung subtree's potentials by one constant sigma. Only
// potential differences matter, so when that subtree holds more than half
// the nodes the complement is shifted by -sigma instead.
func (ns *netSimplex) updatePotential(enter int) {
	u, v := ns.uIn, ns.vIn
	sigma := ns.pi[v] - ns.pi[u]
	if ns.predUp[u] {
		sigma -= ns.cost[enter] // arc u -> v: pi[u] = pi[v] - cost
	} else {
		sigma += ns.cost[enter] // arc v -> u: pi[u] = pi[v] + cost
	}
	end := ns.thread[ns.lastSucc[u]]
	if 2*int(ns.succNum[u]) <= ns.numNodes {
		for x := u; x != end; x = ns.thread[x] {
			ns.pi[x] += sigma
		}
	} else {
		for x := end; x != u; x = ns.thread[x] {
			ns.pi[x] -= sigma
		}
	}
}
