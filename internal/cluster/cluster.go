// Package cluster implements BestChoice clustering [17], used by both
// tools in the paper's experiments (§V, cluster ratio 5 on the industrial
// instances, ratio 2 on the ISPD benchmarks). Cells are merged bottom-up
// by a connectivity/size score until the number of movable objects drops
// to (movable cells)/ratio; the placer then runs on the clustered netlist
// and the solution is projected back to the flat cells.
package cluster

import (
	"cmp"
	"slices"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

// Clustering maps a flat netlist to its clustered counterpart.
type Clustering struct {
	// Clustered is the coarsened netlist.
	Clustered *netlist.Netlist
	// Flat is the original netlist the clustering was built from.
	Flat *netlist.Netlist
	// Parent maps each flat cell to its clustered cell.
	Parent []netlist.CellID
	// Members lists the flat cells of each clustered cell.
	Members [][]netlist.CellID
}

// Options controls BestChoice.
type Options struct {
	// Ratio is the target ratio |flat movable| / |clustered movable|.
	// Values <= 1 disable clustering. The paper uses 5 (industrial) and
	// 2 (ISPD).
	Ratio float64
}

// maxAreaFactor bounds cluster growth: no cluster exceeds this multiple
// of the average movable cell area.
const maxAreaFactor = 32

// maxNetCells is the largest number of distinct movable cells on a net
// that BestChoice connects: bigger nets carry little clustering signal,
// and their cliques would dominate the adjacency.
const maxNetCells = 16

// scorePair is a candidate merge in the priority queue.
type scorePair struct {
	a, b  int32
	score float64
	stamp int64 // lazy invalidation: stamps of both endpoints at push time
}

// pairHeap is a max-heap on score. push and pop sift exactly as
// container/heap's Push and Pop do, so equal scores pop in the same order.
type pairHeap []scorePair

func (h pairHeap) less(i, j int) bool { return h[i].score > h[j].score }

func (h *pairHeap) push(p scorePair) {
	*h = append(*h, p)
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *pairHeap) pop() scorePair {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s.less(j2, j) {
			j = j2 // right child
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s[:n]
	return s[n]
}

// edge is one entry of a cluster's adjacency list: a flat neighbor and
// the connectivity it brings, which a merge folds into the new root's
// pair weights.
type edge struct {
	to int32
	w  float64
}

// pairRef points from a cluster root at the slab slot of its pair weight
// with another root; the two roots' lists share the slot.
type pairRef struct {
	other, slot int32
}

// state is BestChoice's union-find over the flat cells together with the
// connectivity of the current cluster roots.
type state struct {
	n       *netlist.Netlist
	parent  []int32
	area    []float64
	stamp   []int64
	maxArea float64
	// nbrs[r] lists the edges of root r's members in merge order, each
	// with its own weight: pushBest scans it for candidate roots, and a
	// merge folds it into the surviving root's pair weights.
	nbrs [][]edge
	// pairs[r] points at the weights of r's pairs with other roots, kept
	// in the weight slab. An entry whose other end is no longer a root is
	// never read again and is dropped at the next scan.
	pairs  [][]pairRef
	weight []float64
	// After markPairs(a), slotOf[t] is the slot of pair (a, t) when
	// marked[t] == mark; seen[t] == mark once pushBest has scored t.
	slotOf []int32
	marked []int32
	seen   []int32
	mark   int32
	heap   pairHeap
}

// BestChoice clusters the netlist. Fixed cells are never clustered; cells
// of different movebounds are never merged (a cluster must have a single
// movebound to stay placeable).
func BestChoice(n *netlist.Netlist, opt Options) *Clustering {
	numCells := n.NumCells()
	// Union-find state over flat cells; every flat cell starts as its own
	// cluster root.
	s := &state{
		n:      n,
		parent: make([]int32, numCells),
		area:   make([]float64, numCells),
		stamp:  make([]int64, numCells),
		slotOf: make([]int32, numCells),
		marked: make([]int32, numCells),
		seen:   make([]int32, numCells),
	}
	movable := 0
	totalArea := 0.0
	for i := range s.parent {
		s.parent[i] = int32(i)
		s.area[i] = n.Cells[i].Size()
		if !n.Cells[i].Fixed {
			movable++
			totalArea += s.area[i]
		}
	}

	target := movable
	if opt.Ratio > 1 {
		target = int(float64(movable) / opt.Ratio)
		if target < 1 {
			target = 1
		}
	}
	if movable > 0 {
		s.maxArea = maxAreaFactor * totalArea / float64(movable)
	}
	s.connect()

	for i := int32(0); i < int32(numCells); i++ {
		if !n.Cells[i].Fixed {
			s.pushBest(i)
		}
	}
	clusters := movable
	for clusters > target && len(s.heap) > 0 {
		top := s.heap.pop()
		a, b := s.find(top.a), s.find(top.b)
		if a == b || top.stamp != s.stamp[a]+s.stamp[b] || !s.canMerge(a, b) {
			if a != b {
				s.pushBest(a)
			}
			continue
		}
		// Merge b into a (keep the smaller id as root for determinism).
		if b < a {
			a, b = b, a
		}
		s.merge(a, b)
		clusters--
		s.pushBest(a)
	}

	return buildClustered(n, s.find)
}

// connect builds the initial adjacency with clique-model weights: every
// net with 2 to maxNetCells distinct movable cells adds w(net)/(p-1) to
// each pair of them, summed over the nets in net order. Each cell's list
// holds its neighbors in ascending id order, one entry per neighbor.
func (s *state) connect() {
	n := s.n
	numCells := len(s.parent)
	type netPair struct {
		a, b int32
		w    float64
	}
	var emitted []netPair
	deg := make([]int32, numCells+1)
	onNet := make([]int32, numCells) // onNet[c] == ni+1: c already seen on net ni
	var mov []int32
	for ni := range n.Nets {
		mov = mov[:0]
		for _, p := range n.Nets[ni].Pins {
			if p.IsPad() || onNet[p.Cell] == int32(ni+1) {
				continue
			}
			onNet[p.Cell] = int32(ni + 1)
			if !n.Cells[p.Cell].Fixed {
				mov = append(mov, int32(p.Cell))
			}
		}
		p := len(mov)
		if p < 2 || p > maxNetCells {
			continue
		}
		w := n.Nets[ni].Weight / float64(p-1)
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				emitted = append(emitted, netPair{mov[i], mov[j], w})
				deg[mov[i]+1]++
				deg[mov[j]+1]++
			}
		}
	}
	// Group each cell's pairs in net order, then sort them stably by
	// neighbor and sum each neighbor's run: the sum runs in net order,
	// exactly as accumulating the pair's weight net by net does.
	for c := 0; c < numCells; c++ {
		deg[c+1] += deg[c]
	}
	flat := make([]edge, deg[numCells])
	next := slices.Clone(deg[:numCells])
	for _, e := range emitted {
		flat[next[e.a]] = edge{e.b, e.w}
		next[e.a]++
		flat[next[e.b]] = edge{e.a, e.w}
		next[e.b]++
	}
	s.nbrs = make([][]edge, numCells)
	distinct := 0
	for c := 0; c < numCells; c++ {
		seg := flat[deg[c]:deg[c+1]]
		slices.SortStableFunc(seg, func(x, y edge) int { return cmp.Compare(x.to, y.to) })
		k := 0
		for i := 0; i < len(seg); {
			to, w := seg[i].to, 0.0
			for ; i < len(seg) && seg[i].to == to; i++ {
				w += seg[i].w
			}
			seg[k] = edge{to, w}
			k++
		}
		s.nbrs[c] = seg[:k:k]
		distinct += k
	}
	// One slab slot per adjacent pair, shared by both endpoints' lists.
	refs := make([]pairRef, distinct)
	s.pairs = make([][]pairRef, numCells)
	for c := range s.pairs {
		k := len(s.nbrs[c])
		s.pairs[c], refs = refs[:0:k], refs[k:]
	}
	s.weight = make([]float64, 0, distinct/2)
	for c := range s.nbrs {
		for _, e := range s.nbrs[c] {
			if e.to > int32(c) {
				s.newPair(int32(c), e.to, e.w)
			}
		}
	}
}

// newPair adds the pair (a, t) with weight w to both roots' lists and
// returns its slot.
func (s *state) newPair(a, t int32, w float64) int32 {
	slot := int32(len(s.weight))
	s.weight = append(s.weight, w)
	s.pairs[a] = append(s.pairs[a], pairRef{t, slot})
	s.pairs[t] = append(s.pairs[t], pairRef{a, slot})
	return slot
}

func (s *state) find(v int32) int32 {
	r := v
	for s.parent[r] != r {
		r = s.parent[r]
	}
	for s.parent[v] != r {
		next := s.parent[v]
		s.parent[v] = r
		v = next
	}
	return r
}

func (s *state) canMerge(a, b int32) bool {
	ca, cb := &s.n.Cells[a], &s.n.Cells[b]
	if ca.Fixed || cb.Fixed {
		return false
	}
	if ca.Movebound != cb.Movebound {
		return false
	}
	return s.area[a]+s.area[b] <= s.maxArea
}

// markPairs opens a new mark and records the slot of every pair of root a
// whose other end is still a root, dropping the entries whose other end
// is not.
func (s *state) markPairs(a int32) {
	s.mark++
	live := s.pairs[a][:0]
	for _, p := range s.pairs[a] {
		if s.parent[p.other] != p.other {
			continue
		}
		live = append(live, p)
		s.slotOf[p.other] = p.slot
		s.marked[p.other] = s.mark
	}
	s.pairs[a] = live
}

// pushBest pushes a's best current neighbor: the mergeable root of the
// highest score, connectivity over summed area, the first in a's edge
// order among equal scores.
func (s *state) pushBest(a int32) {
	s.markPairs(a)
	best, bestS := int32(-1), 0.0
	for _, e := range s.nbrs[a] {
		b := s.find(e.to)
		if b == a || s.seen[b] == s.mark {
			continue // a repeated root scores the same and never wins
		}
		s.seen[b] = s.mark
		if !s.canMerge(a, b) {
			continue
		}
		w := 0.0
		if s.marked[b] == s.mark {
			w = s.weight[s.slotOf[b]]
		}
		if sc := w / (s.area[a] + s.area[b]); best < 0 || sc > bestS {
			best, bestS = b, sc
		}
	}
	if best >= 0 {
		s.heap.push(scorePair{a: a, b: best, score: bestS, stamp: s.stamp[a] + s.stamp[best]})
	}
}

// merge folds root b into root a: b's edges move to a, and each edge
// whose root is another root t adds its weight to the pair (a, t), in
// b's edge order.
func (s *state) merge(a, b int32) {
	s.parent[b] = a
	s.stamp[a]++
	s.area[a] += s.area[b]
	s.markPairs(a)
	for _, e := range s.nbrs[b] {
		t := s.find(e.to)
		if t == a {
			continue
		}
		if s.marked[t] != s.mark {
			s.slotOf[t] = s.newPair(a, t, 0)
			s.marked[t] = s.mark
		}
		s.weight[s.slotOf[t]] += e.w
		s.nbrs[a] = append(s.nbrs[a], edge{t, e.w})
	}
	s.nbrs[b], s.pairs[b] = nil, nil
}

// buildClustered materializes the clustered netlist from the union-find.
func buildClustered(n *netlist.Netlist, find func(int32) int32) *Clustering {
	numCells := n.NumCells()
	cl := &Clustering{
		Flat:   n,
		Parent: make([]netlist.CellID, numCells),
	}
	coarse := netlist.New(n.Area, n.RowHeight)
	// Deterministic: iterate flat cells in order; allocate cluster ids by
	// first appearance of the root. idOf[root] is the root's id plus one.
	idOf := make([]int32, numCells)
	var size []int32
	for i := int32(0); i < int32(numCells); i++ {
		root := find(i)
		if idOf[root] == 0 {
			c := n.Cells[root]
			id := coarse.AddCell(netlist.Cell{
				Name:      c.Name,
				Width:     0, // set below from accumulated area
				Height:    n.RowHeight,
				Fixed:     c.Fixed,
				Movebound: c.Movebound,
			})
			idOf[root] = int32(id) + 1
			size = append(size, 0)
		}
		id := netlist.CellID(idOf[root] - 1)
		cl.Parent[i] = id
		size[id]++
	}
	members := make([]netlist.CellID, numCells)
	cl.Members = make([][]netlist.CellID, len(size))
	for id, k := range size {
		cl.Members[id], members = members[:0:k], members[k:]
	}
	for i, id := range cl.Parent {
		cl.Members[id] = append(cl.Members[id], netlist.CellID(i))
	}
	// Cluster geometry: area-preserving, height = row height (or the
	// member height for singleton/fixed clusters), centered at the
	// area-weighted centroid of the members.
	for id, members := range cl.Members {
		cid := netlist.CellID(id)
		var a, sx, sy float64
		for _, m := range members {
			ma := n.Cells[m].Size()
			a += ma
			sx += ma * n.X[m]
			sy += ma * n.Y[m]
		}
		if len(members) == 1 {
			c := n.Cells[members[0]]
			coarse.Cells[cid].Width = c.Width
			coarse.Cells[cid].Height = c.Height
		} else {
			coarse.Cells[cid].Height = n.RowHeight
			coarse.Cells[cid].Width = a / n.RowHeight
		}
		if a > 0 {
			coarse.SetPos(cid, geom.Point{X: sx / a, Y: sy / a})
		}
	}
	// Nets: project pins to clusters; drop nets internal to one cluster.
	onNet := make([]int32, len(size)) // onNet[cid] == ni+1: cid already pinned on net ni
	for ni := range n.Nets {
		net := &n.Nets[ni]
		var pins []netlist.Pin
		distinct, pads := 0, 0
		for _, p := range net.Pins {
			if p.IsPad() {
				pins = append(pins, p)
				pads++
				continue
			}
			cid := cl.Parent[p.Cell]
			if onNet[cid] != int32(ni+1) {
				onNet[cid] = int32(ni + 1)
				distinct++
				pins = append(pins, netlist.Pin{Cell: cid})
			}
		}
		if distinct+pads < 2 {
			continue
		}
		coarse.AddNet(netlist.Net{Name: net.Name, Weight: net.Weight, Pins: pins})
	}
	cl.Clustered = coarse
	return cl
}

// Project writes the clustered placement back to the flat netlist: each
// flat cell takes its cluster's position (legalization spreads them out).
func (cl *Clustering) Project() {
	for i := range cl.Flat.Cells {
		if cl.Flat.Cells[i].Fixed {
			continue
		}
		cid := cl.Parent[i]
		cl.Flat.SetPos(netlist.CellID(i), cl.Clustered.Pos(cid))
	}
}
