// Package transport solves the (unbalanced) Hitchcock transportation
// problems arising in partitioning (paper §III): ship cell area from
// sources (cells) to sinks (regions and temporary transit regions) at
// minimum total cost, where inadmissible pairs (movebound does not cover
// the region) are simply absent from the arc lists.
//
// The engine (Solve) is condensed: it starts from the optimal pseudoflow
// that sends every source to its cheapest admissible sink and then
// cancels sink overloads along shortest paths in a condensed graph whose
// nodes are the sinks only. Each condensed arc a->b is the cheapest
// reassignment of any source currently in a to b. Node potentials kept
// across augmentations make every reduced cost nonnegative, so each path
// is one Dijkstra search over only the sink pairs with a live candidate.
// This mirrors the role of Brenner's fast transportation algorithm [4] in
// BonnPlace. The package tests check it against a reference engine,
// successive shortest paths on the full bipartite network.
//
// Every solve is elastic: a sink may take area above its capacity at a
// price M per unit, where M exceeds the cost of any reassignment path, so
// one solve minimizes the total overflow first and the movement cost
// second, and reports the overflow per sink. When the capacities admit a
// plan, no overflow is taken and the plan is the capacity-respecting
// optimum. A solve fails with ErrInfeasible only when a source has no
// admissible sink.
//
// Solutions are fractional in general but almost integral: at most k-1
// sources are split (a vertex of the transportation polytope). Rounded()
// maps every split source to its majority sink.
package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/obs"
)

// condensedFault makes the production engine fail at entry; Solve
// returns the error to its caller, which reports it as a structured error.
var condensedFault = faultsim.Register("transport.condensed.fail",
	"condensed-sink transportation engine fails at entry")

// Arc is an admissible (source, sink) pair with its movement cost.
type Arc struct {
	Sink int
	Cost float64
}

// Problem is a transportation instance. Sources ship their full Supply;
// sinks take Capacity at no extra price and any area above it at the
// overflow price (see overflowPrice), which the solution reports per sink
// in Solution.Overflow. Capacity itself is never changed.
type Problem struct {
	Supply   []float64 // per source, > 0
	Capacity []float64 // per sink, >= 0
	Arcs     [][]Arc   // Arcs[i] lists admissible sinks of source i
	// Obs, when non-nil, records the counters "transport.solves",
	// "transport.sources", "transport.augmentations" (condensed-engine
	// shortest-path augmentations), "transport.refills" (candidate-prefix
	// refills from a sink's presence list), "transport.tie_scans" (tied
	// groups the prefix could not prove complete, so the list was
	// scanned), "transport.splits", "transport.overflow" (overflow area)
	// and "transport.overflow_solves" (solves that took any overflow) per
	// Solve call.
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled during the solve; a canceled or expired
	// context aborts with the context's error.
	Ctx context.Context
	// Workspace, when non-nil, supplies the condensed engine's reusable
	// buffers (see Workspace); nil allocates them per solve.
	Workspace *Workspace
}

// NumSources returns the number of sources.
func (p *Problem) NumSources() int { return len(p.Supply) }

// NumSinks returns the number of sinks.
func (p *Problem) NumSinks() int { return len(p.Capacity) }

// Portion is a fractional assignment of a source to a sink.
type Portion struct {
	Sink   int
	Amount float64
}

// Solution holds a fractional transportation plan.
type Solution struct {
	// Assign[i] lists the portions of source i, largest first.
	Assign [][]Portion
	// Cost is the total movement cost of the plan (overflow not priced).
	Cost float64
	// Overflow[j] is the area sink j takes above its capacity (one entry
	// per sink; all zero when the capacities admit a plan).
	Overflow []float64
}

// TotalOverflow returns the sum of Overflow.
func (s *Solution) TotalOverflow() float64 {
	t := 0.0
	for _, o := range s.Overflow {
		t += o
	}
	return t
}

// overflowPrice returns the price M of one unit of overflow: above
// the cost of any simple reassignment path of the condensed graph (at most
// k hops, each changing a cost by at most 2·max|cost|), so routing a unit
// to a sink with slack always beats overflowing it.
func overflowPrice(p *Problem) float64 {
	maxCost := 0.0
	for _, arcs := range p.Arcs {
		for _, a := range arcs {
			maxCost = math.Max(maxCost, math.Abs(a.Cost))
		}
	}
	return float64(p.NumSinks()+1) * (2*maxCost + 1)
}

// ErrInfeasible reports that a source has no admissible sink.
var ErrInfeasible = errors.New("transport: infeasible instance")

// Rounded returns, per source, the sink receiving the largest portion.
// Sources with no assignment (never in a solved plan) map to -1.
func (s *Solution) Rounded() []int {
	out := make([]int, len(s.Assign))
	for i, ps := range s.Assign {
		if len(ps) == 0 {
			out[i] = -1
			continue
		}
		out[i] = ps[0].Sink
	}
	return out
}

// NumSplit returns the number of sources assigned to more than one sink —
// by almost-integrality this is at most (number of sinks - 1).
func (s *Solution) NumSplit() int {
	n := 0
	for _, ps := range s.Assign {
		if len(ps) > 1 {
			n++
		}
	}
	return n
}

// sortPortions orders a source's portions by amount, largest first, then
// by sink: a total order, so the plan does not depend on the sort.
func sortPortions(ps []Portion) {
	slices.SortFunc(ps, func(a, b Portion) int {
		return cmp.Or(cmp.Compare(b.Amount, a.Amount), cmp.Compare(a.Sink, b.Sink))
	})
}

// Solve solves the instance with the condensed-sink engine. The solution
// is an optimal fractional plan (same cost as the reference engine of the
// package tests, successive shortest paths on the full bipartite network,
// up to numerical tolerance). An engine failure is returned as is: there is no
// second engine to retry on.
func Solve(p *Problem) (*Solution, error) {
	sol, st, err := runCondensed(p)
	if p.Obs != nil {
		p.Obs.Count("transport.solves", 1)
		p.Obs.Count("transport.sources", float64(p.NumSources()))
		p.Obs.Count("transport.augmentations", float64(st.augs))
		p.Obs.Count("transport.refills", float64(st.refills))
		p.Obs.Count("transport.tie_scans", float64(st.tieScans))
		if err == nil {
			p.Obs.Count("transport.splits", float64(sol.NumSplit()))
			over := sol.TotalOverflow()
			p.Obs.Count("transport.overflow", over)
			if over > 0 {
				p.Obs.Count("transport.overflow_solves", 1)
			}
		}
	}
	return sol, err
}

// presence tracks how much of source i currently sits at sink j, together
// with the source's cost at that sink (cached to keep the hot path free of
// map lookups).
type presence struct {
	source int
	amount float64
	cost   float64
}

// condEdge is one condensed-graph edge candidate: reassigning `source`
// from the owning sink to the target sink costs w.
type condEdge struct {
	w      float64
	source int
}

// prefixLen is the number of candidates a pair keeps. Four covers the
// common tied group without a scan and keeps each offer and removal a
// short shift; a heap per pair would instead cost k-1 pushes per new
// presence.
const prefixLen = 4

// pairState keeps the candidates of one (from, to) sink pair: top[:n] is
// the exact top n of the live candidates in `better` order, maintained
// incrementally as presences change, and n == 0 while live > 0 means the
// prefix ran empty and is refilled from the from-sink's presences on next
// access. `live` counts the presences at the from-sink that are admissible
// at the to-sink; the pair is listed in the from-sink's adjacency (at
// index `pos`) exactly while live > 0, and n == live says the prefix holds
// every live candidate.
type pairState struct {
	top       [prefixLen]condEdge
	n         int32
	live, pos int32
}

// condensed holds the solver state: presences per sink, a (k x k) matrix
// of candidate prefixes maintained incrementally, and a sparse per-sink
// adjacency over the pairs with live candidates, so an augmentation costs
// one Dijkstra search over the live pairs plus O(path * prefix) upkeep.
type condensed struct {
	k      int
	arcsOf [][]Arc
	flat   []Arc // backing array of arcsOf
	// costOf is a dense n x k matrix of arc costs (+Inf = inadmissible);
	// dense storage keeps the hot loops free of map lookups.
	costOf   []float64
	capacity []float64
	at       [][]presence
	// slot[i*k+j] is the index of source i's presence in at[j], so adding
	// and removing a presence takes O(1). An entry is valid only when that
	// presence is source i's (see present), so the index is never cleared.
	slot []int32
	load []float64
	// used[j] is the overflow sink j has taken: the flow on its
	// overflow-priced arc to T, nonzero only while the sink is full. Its
	// excess still to route is load - capacity - used.
	used     []float64
	overflow float64     // the overflow price M
	pairs    []pairState // pairs[a*k+b]
	adj      [][]int32   // adj[a]: sinks b with pairs[a*k+b].live > 0

	// Search state over k+1 nodes; node k is the super-sink T. The
	// potentials pi persist across augmentations; everything else is
	// scratch rewritten by every search and reused to avoid reallocation.
	pi      []float64
	dist    []float64
	via     []viaEdge
	done    []bool
	heap    []int32 // nodes ordered by (dist, index)
	heapPos []int32 // index in heap, -1 when absent
	path    []int
	groups  []tiedGroup
	count   []int // portions per source, for the extraction
	// first[i] is source i's cheapest sink and perSink[j] the number of
	// sources whose cheapest sink is j (the initial pseudoflow).
	first, perSink []int32

	// refills counts prefix refills and tieScans the tied groups that
	// needed a scan of the presence list.
	refills, tieScans int
}

// Workspace holds the condensed engine's reusable buffers: the cost
// matrix, presence lists, slot index, pair prefixes and search scratch.
// Passing one through Problem.Workspace makes a steady-state solve
// allocate only its Solution. A workspace must not be shared by concurrent
// solves; the realization threads one per worker. Results are
// bit-identical with and without a workspace: every buffer is rewritten
// per solve.
type Workspace struct {
	c condensed
}

// NewWorkspace returns an empty workspace. Buffers are sized on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

type viaEdge struct {
	from   int // predecessor sink
	source int // source reassigned from 'from' to this sink (-1 into T)
}

// tiedGroup collects the presences moved along one path edge.
type tiedGroup struct {
	sources []int
	amounts []float64
	total   float64
}

func better(x, y condEdge) bool {
	//fbpvet:floatok exact tie-break on stored weights keeps the sort total
	if x.w != y.w {
		return x.w < y.w
	}
	return x.source < y.source
}

// offer inserts a new candidate into the pair's prefix. A candidate that
// ranks after every entry is appended only while the prefix holds every
// live candidate: otherwise presences the prefix no longer tracks may rank
// before it (an empty prefix of a live pair waits for its refill, which
// sees the candidate). The caller counts the candidate in live afterwards.
func (p *pairState) offer(e condEdge) {
	i := p.rank(e)
	if i == p.n && (p.n == prefixLen || p.n < p.live) {
		return
	}
	p.insert(i, e)
}

// rank returns the number of prefix entries that rank before e.
func (p *pairState) rank(e condEdge) int32 {
	i := p.n
	for i > 0 && better(e, p.top[i-1]) {
		i--
	}
	return i
}

// insert puts e at prefix index i, dropping the last entry of a full
// prefix.
func (p *pairState) insert(i int32, e condEdge) {
	if p.n < prefixLen {
		p.n++
	}
	copy(p.top[i+1:p.n], p.top[i:p.n-1])
	p.top[i] = e
}

// drop removes source src from the pair's prefix, if it is there; the
// rest stays the exact top of the remaining candidates.
func (p *pairState) drop(src int) {
	for i := int32(0); i < p.n; i++ {
		if p.top[i].source == src {
			copy(p.top[i:p.n-1], p.top[i+1:p.n])
			p.n--
			return
		}
	}
}

// onAdd records a new presence of src at sink a.
func (c *condensed) onAdd(a, src int, costA float64) {
	row := c.pairs[a*c.k : (a+1)*c.k]
	for _, arc := range c.arcsOf[src] {
		if arc.Sink == a {
			continue
		}
		p := &row[arc.Sink]
		p.offer(condEdge{w: arc.Cost - costA, source: src})
		if p.live == 0 {
			p.pos = int32(len(c.adj[a]))
			c.adj[a] = append(c.adj[a], int32(arc.Sink))
		}
		p.live++
	}
}

// onRemove records the full removal of src from sink a.
func (c *condensed) onRemove(a, src int) {
	row := c.pairs[a*c.k : (a+1)*c.k]
	for _, arc := range c.arcsOf[src] {
		if arc.Sink == a {
			continue
		}
		p := &row[arc.Sink]
		p.drop(src)
		if p.live--; p.live == 0 {
			// Swap-remove the pair from a's adjacency.
			adj := c.adj[a]
			last := adj[len(adj)-1]
			adj[p.pos] = last
			row[last].pos = p.pos
			c.adj[a] = adj[:len(adj)-1]
		}
	}
}

// best returns the cheapest candidate of the live pair (a, b), refilling
// its prefix from a's presence list when it ran empty.
func (c *condensed) best(a, b int, p *pairState) condEdge {
	if p.n == 0 {
		c.refill(a, b, p)
	}
	return p.top[0]
}

// refill rebuilds the prefix of pair (a, b) from a's presence list: the
// one remaining scan of the list outside tie-heavy groups.
func (c *condensed) refill(a, b int, p *pairState) {
	c.refills++
	p.n = 0
	for _, pr := range c.at[a] {
		cb := c.costOf[pr.source*c.k+b]
		if math.IsInf(cb, 1) {
			continue
		}
		e := condEdge{w: cb - pr.cost, source: pr.source}
		if i := p.rank(e); i < prefixLen {
			p.insert(i, e)
		}
	}
}

// collectTies fills g with the presences at a whose reassignment to b
// costs exactly bestW (the pair's cheapest), in presence-list order. The
// prefix holds every tie when an entry costs more than bestW or when it
// holds every live candidate; only otherwise is the list scanned.
func (c *condensed) collectTies(a, b int, bestW float64, g *tiedGroup) {
	k := c.k
	g.sources, g.amounts, g.total = g.sources[:0], g.amounts[:0], 0
	p := &c.pairs[a*k+b]
	m := int32(0)
	for m < p.n && p.top[m].w <= bestW {
		m++
	}
	if m < p.n || p.n == p.live {
		var idx [prefixLen]int32
		for t := int32(0); t < m; t++ {
			s := c.slot[p.top[t].source*k+a]
			u := t
			for ; u > 0 && idx[u-1] > s; u-- {
				idx[u] = idx[u-1]
			}
			idx[u] = s
		}
		for _, s := range idx[:m] {
			pr := &c.at[a][s]
			if pr.amount <= flow.Eps {
				continue
			}
			g.sources = append(g.sources, pr.source)
			g.amounts = append(g.amounts, pr.amount)
			g.total += pr.amount
		}
		return
	}
	c.tieScans++
	for _, pr := range c.at[a] {
		if pr.amount <= flow.Eps {
			continue
		}
		cb := c.costOf[pr.source*k+b]
		if math.IsInf(cb, 1) {
			continue
		}
		if cb-pr.cost <= bestW {
			g.sources = append(g.sources, pr.source)
			g.amounts = append(g.amounts, pr.amount)
			g.total += pr.amount
		}
	}
}

// engineStats reports the condensed engine's effort: shortest-path
// augmentations, prefix refills and tied groups that needed a scan.
type engineStats struct {
	augs, refills, tieScans int
}

// reset sizes the engine's buffers for an n x k instance, reusing their
// capacity, and clears the per-solve state.
func (c *condensed) reset(p *Problem) {
	n, k := p.NumSources(), p.NumSinks()
	c.k = k
	c.capacity = p.Capacity
	c.overflow = overflowPrice(p)
	c.refills, c.tieScans = 0, 0
	c.costOf = growFloats(c.costOf, n*k)
	for i := range c.costOf {
		c.costOf[i] = math.Inf(1)
	}
	c.slot = growInt32s(c.slot, n*k)
	if cap(c.arcsOf) < n {
		c.arcsOf = make([][]Arc, n)
	}
	c.arcsOf = c.arcsOf[:n]
	total := 0
	for _, arcs := range p.Arcs {
		total += len(arcs)
	}
	if cap(c.flat) < total {
		c.flat = make([]Arc, 0, total)
	}
	c.flat = c.flat[:0]
	if cap(c.at) < k {
		c.at = make([][]presence, k)
		c.adj = make([][]int32, k)
	}
	c.at, c.adj = c.at[:k], c.adj[:k]
	for j := range c.at {
		c.at[j], c.adj[j] = c.at[j][:0], c.adj[j][:0]
	}
	c.load = growFloats(c.load, k)
	c.used = growFloats(c.used, k)
	for j := 0; j < k; j++ {
		c.load[j], c.used[j] = 0, 0
	}
	if cap(c.pairs) < k*k {
		c.pairs = make([]pairState, k*k)
	}
	c.pairs = c.pairs[:k*k]
	for i := range c.pairs {
		c.pairs[i] = pairState{}
	}
	c.pi = growFloats(c.pi, k+1)
	for v := range c.pi {
		c.pi[v] = 0
	}
	c.dist = growFloats(c.dist, k+1)
	if cap(c.via) < k+1 {
		c.via = make([]viaEdge, k+1)
		c.done = make([]bool, k+1)
	}
	c.via, c.done = c.via[:k+1], c.done[:k+1]
	c.heapPos = growInt32s(c.heapPos, k+1)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// runCondensed runs the condensed engine and reports its effort.
func runCondensed(p *Problem) (*Solution, engineStats, error) {
	if err := condensedFault.Check(); err != nil {
		return nil, engineStats{}, fmt.Errorf("transport: condensed engine: %w", err)
	}
	var c *condensed
	if p.Workspace != nil {
		c = &p.Workspace.c
	} else {
		c = &condensed{}
	}
	sol, augs, err := c.solve(p)
	return sol, engineStats{augs: augs, refills: c.refills, tieScans: c.tieScans}, err
}

// solve runs the engine on p with c's buffers and reports the number of
// augmentations it made.
func (c *condensed) solve(p *Problem) (*Solution, int, error) {
	n, k := p.NumSources(), p.NumSinks()
	c.reset(p)
	// Per source: arcs deduplicated (cheapest per sink) and sorted by sink
	// so that all iteration below is deterministic, plus a dense cost
	// matrix for O(1) lookups.
	costOf, flat := c.costOf, c.flat
	for i, arcs := range p.Arcs {
		for _, a := range arcs {
			if a.Cost < costOf[i*k+a.Sink] {
				costOf[i*k+a.Sink] = a.Cost
			}
		}
		c.arcsOf[i] = flat[len(flat) : len(flat) : len(flat)+len(arcs)]
		for sink := 0; sink < k; sink++ {
			if !math.IsInf(costOf[i*k+sink], 1) {
				c.arcsOf[i] = append(c.arcsOf[i], Arc{Sink: sink, Cost: costOf[i*k+sink]})
			}
		}
		flat = flat[:len(flat)+len(c.arcsOf[i])]
	}
	// Initial optimal pseudoflow: each source at its cheapest sink. Every
	// candidate edge then has nonnegative weight, so pi = 0 is a valid
	// start for the potentials. A first pass picks the sinks and counts
	// the sources per sink, so every presence list is sized once.
	c.first = growInt32s(c.first, n)
	c.perSink = growInt32s(c.perSink, k)
	clear(c.perSink)
	for i := 0; i < n; i++ {
		if p.Supply[i] <= 0 {
			return nil, 0, fmt.Errorf("transport: source %d has non-positive supply %g", i, p.Supply[i])
		}
		best, bestC := -1, math.Inf(1)
		for _, a := range c.arcsOf[i] {
			if a.Cost < bestC {
				best, bestC = a.Sink, a.Cost
			}
		}
		if best < 0 {
			return nil, 0, fmt.Errorf("%w: source %d has no admissible sink", ErrInfeasible, i)
		}
		c.first[i] = int32(best)
		c.perSink[best]++
	}
	for j, cnt := range c.perSink {
		if cap(c.at[j]) < int(cnt) {
			c.at[j] = make([]presence, 0, cnt)
		}
	}
	for i, best := range c.first {
		bestC := costOf[i*k+int(best)]
		c.addPresence(int(best), i, p.Supply[i], bestC)
		c.load[best] += p.Supply[i]
		c.onAdd(int(best), i, bestC)
	}
	// Cancel overloads: each augmentation ships from an overloaded sink
	// along a shortest path of the condensed graph to the cheapest
	// reachable sink with slack (Dijkstra on reduced costs; see search),
	// or to the cheapest overflow.
	augs := 0
	for {
		if p.Ctx != nil {
			if err := p.Ctx.Err(); err != nil {
				return nil, augs, err
			}
		}
		over := -1
		for j := 0; j < k; j++ {
			if c.load[j] > p.Capacity[j]+c.used[j]+flow.Eps {
				over = j
				break
			}
		}
		if over < 0 {
			break
		}
		target := c.search(over)
		if target < 0 {
			return nil, augs, fmt.Errorf("transport: super-sink unreachable (internal error)")
		}
		// Reconstruct path: the sink sequence from over to target (just
		// [over] when over keeps its excess as overflow).
		path := c.path[:0]
		for j := target; j != over; j = c.via[j].from {
			path = append(path, j)
			if len(path) > k {
				return nil, augs, fmt.Errorf("transport: predecessor cycle (internal error)")
			}
		}
		path = append(path, over)
		reverse(path)
		c.path = path
		// Batch augmentation: along each path edge, all presences whose
		// reassignment cost ties the best candidate *exactly* have zero
		// reduced cost too, so the whole tied group can move in one
		// augmentation (a blocking-flow-style step). This collapses the
		// thousands of unit-sized augmentations that arise when many
		// cells share a position (initial pile-ups). Ties must be exact:
		// a moved presence's reverse edge must be tight under the updated
		// potentials, and batching epsilon-near candidates would leave
		// slightly negative reduced costs for later searches.
		// T is reached from target over its zero-cost arc while target
		// has slack, and over its uncapacitated overflow arc once full.
		want := c.load[over] - p.Capacity[over] - c.used[over]
		spill := !c.hasSlack(target)
		if slack := p.Capacity[target] - c.load[target]; !spill && slack < want {
			want = slack
		}
		for len(c.groups) < len(path)-1 {
			c.groups = append(c.groups, tiedGroup{})
		}
		groups := c.groups[:len(path)-1]
		move := want
		for t := 0; t+1 < len(path); t++ {
			a, b := path[t], path[t+1]
			bestW := costOf[c.via[b].source*k+b] - costOf[c.via[b].source*k+a]
			g := &groups[t]
			c.collectTies(a, b, bestW, g)
			if g.total < move {
				move = g.total
			}
		}
		if move <= flow.Eps {
			return nil, augs, fmt.Errorf("transport: degenerate augmentation (move %g)", move)
		}
		for t := 0; t+1 < len(path); t++ {
			a, b := path[t], path[t+1]
			g := &groups[t]
			remaining := move
			for gi := 0; gi < len(g.sources) && remaining > flow.Eps; gi++ {
				src := g.sources[gi]
				amt := g.amounts[gi]
				if amt > remaining {
					amt = remaining
				}
				if c.removePresence(a, src, amt) {
					c.onRemove(a, src)
				}
				if c.addPresence(b, src, amt, costOf[src*k+b]) {
					c.onAdd(b, src, costOf[src*k+b])
				}
				remaining -= amt
			}
			c.load[a] -= move
			c.load[b] += move
		}
		if spill {
			c.used[target] += move
		}
		augs++
	}
	// Extract solution: count the portions per source first so that all
	// of them share one backing array.
	sol := &Solution{Assign: make([][]Portion, n), Overflow: append([]float64(nil), c.used...)}
	if cap(c.count) < n {
		c.count = make([]int, n)
	}
	count := c.count[:n]
	for i := range count {
		count[i] = 0
	}
	total := 0
	for j := 0; j < k; j++ {
		for _, pr := range c.at[j] {
			if pr.amount > flow.Eps {
				count[pr.source]++
				total++
			}
		}
	}
	portions := make([]Portion, total)
	for i, off := 0, 0; i < n; i++ {
		sol.Assign[i] = portions[off : off : off+count[i]]
		off += count[i]
	}
	for j := 0; j < k; j++ {
		for _, pr := range c.at[j] {
			if pr.amount > flow.Eps {
				sol.Assign[pr.source] = append(sol.Assign[pr.source], Portion{Sink: j, Amount: pr.amount})
				sol.Cost += pr.amount * pr.cost
			}
		}
	}
	for i := range sol.Assign {
		sortPortions(sol.Assign[i])
	}
	return sol, augs, nil
}

// search runs Dijkstra from the overloaded sink `over` on the reduced
// costs w(a,b) + pi[a] - pi[b] of the live sink pairs, where w(a,b) is the
// cheapest reassignment of a source present at a to b, plus a zero-cost
// arc from every other sink with slack to the super-sink T (node k); every
// full sink, over included, has an arc to T at the overflow price instead.
// The search stops once T is settled and returns the sink T was reached
// from — the cheapest reachable sink with slack in true cost, else the
// cheapest overflow. T is always reachable over over's own overflow arc;
// -1 reports an internal error.
//
// The potentials start at 0 (every source sits at its cheapest sink) and
// advance by the truncated distances min(dist[v], dist[T]) after each
// search. The truncation keeps every reduced cost nonnegative, including
// the zero-reduced-cost reverse edges the augmentation creates, whichever
// overloaded sink the next search starts from; this is the role node
// potentials play in Brenner's algorithm [4]. Exact arithmetic never
// produces a negative reduced cost, so a negative value is float drift and
// is clamped at 0.
func (c *condensed) search(over int) int {
	k := c.k
	for v := 0; v <= k; v++ {
		c.dist[v] = math.Inf(1)
		c.via[v] = viaEdge{from: -1, source: -1}
		c.done[v] = false
		c.heapPos[v] = -1
	}
	c.heap = c.heap[:0]
	c.dist[over] = 0
	c.update(over)
	for len(c.heap) > 0 {
		a := c.pop()
		c.done[a] = true
		if a == k {
			break
		}
		da, pa := c.dist[a], c.pi[a]
		if c.hasSlack(a) {
			c.relax(a, k, -1, da+pa-c.pi[k])
		} else {
			c.relax(a, k, -1, da+c.overflow+pa-c.pi[k])
		}
		row := c.pairs[a*k : (a+1)*k]
		for _, b := range c.adj[a] {
			if c.done[b] {
				continue
			}
			e := c.best(a, int(b), &row[b])
			c.relax(a, int(b), e.source, da+e.w+pa-c.pi[b])
		}
	}
	if !c.done[k] {
		return -1
	}
	dT := c.dist[k]
	for v := 0; v <= k; v++ {
		if c.done[v] {
			c.pi[v] += c.dist[v]
		} else {
			c.pi[v] += dT
		}
	}
	return c.via[k].from
}

// hasSlack reports whether sink j has room below its capacity (an
// overloaded sink, the search's start included, never has).
func (c *condensed) hasSlack(j int) bool {
	return c.load[j] < c.capacity[j]-flow.Eps
}

// relax offers the settled sink a's edge to b, reassigning source (-1 for
// the edge into T), where nd is dist[a] plus the edge's reduced cost.
func (c *condensed) relax(a, b, source int, nd float64) {
	if da := c.dist[a]; nd < da {
		nd = da // negative reduced cost: float drift, see search
	}
	if nd < c.dist[b] {
		c.dist[b] = nd
		c.via[b] = viaEdge{from: a, source: source}
		c.update(b)
	}
}

// update inserts node v into the heap or moves it up after its distance
// decreased. The heap is indexed (heapPos), so it never holds more than
// one entry per node.
func (c *condensed) update(v int) {
	i := int(c.heapPos[v])
	if i < 0 {
		i = len(c.heap)
		c.heap = append(c.heap, int32(v))
	}
	c.siftUp(i, v)
}

// before orders nodes by distance, then by index, so the settle order
// (and with it the chosen paths) is deterministic.
func (c *condensed) before(u, v int32) bool {
	//fbpvet:floatok exact tie-break on stored distances keeps the order total
	if c.dist[u] != c.dist[v] {
		return c.dist[u] < c.dist[v]
	}
	return u < v
}

func (c *condensed) siftUp(i, v int) {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !c.before(int32(v), h[parent]) {
			break
		}
		h[i] = h[parent]
		c.heapPos[h[i]] = int32(i)
		i = parent
	}
	h[i] = int32(v)
	c.heapPos[v] = int32(i)
}

// pop removes and returns the heap's first node.
func (c *condensed) pop() int {
	h := c.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	c.heap = h
	c.heapPos[top] = -1
	if len(h) == 0 {
		return int(top)
	}
	i := 0
	for {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && c.before(h[r], h[m]) {
			m = r
		}
		if !c.before(h[m], last) {
			break
		}
		h[i] = h[m]
		c.heapPos[h[i]] = int32(i)
		i = m
	}
	h[i] = last
	c.heapPos[last] = int32(i)
	return int(top)
}

// removePresence reduces source's amount at sink j; it reports whether
// the presence disappeared entirely (candidate edges must be retired). The
// list's last presence takes the removed one's place: that swap-remove
// fixes the order the tied groups and the extraction iterate in.
func (c *condensed) removePresence(j, source int, amt float64) bool {
	ps := c.at[j]
	i := c.slot[source*c.k+j]
	ps[i].amount -= amt
	if ps[i].amount > flow.Eps {
		return false
	}
	last := int32(len(ps) - 1)
	ps[i] = ps[last]
	c.slot[ps[i].source*c.k+j] = i
	c.at[j] = ps[:last]
	return true
}

// present returns the index of source's presence in at[j], or -1.
func (c *condensed) present(j, source int) int32 {
	i := c.slot[source*c.k+j]
	if i >= 0 && int(i) < len(c.at[j]) && c.at[j][i].source == source {
		return i
	}
	return -1
}

// addPresence adds amount of source at sink j; it reports whether the
// presence is new (candidate edges must be offered).
func (c *condensed) addPresence(j, source int, amt, cost float64) bool {
	if i := c.present(j, source); i >= 0 {
		c.at[j][i].amount += amt
		return false
	}
	c.slot[source*c.k+j] = int32(len(c.at[j]))
	c.at[j] = append(c.at[j], presence{source: source, amount: amt, cost: cost})
	return true
}

func reverse(v []int) {
	for i, j := 0, len(v)-1; i < j; i, j = i+1, j-1 {
		v[i], v[j] = v[j], v[i]
	}
}
