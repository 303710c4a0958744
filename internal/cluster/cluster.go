// Package cluster implements BestChoice clustering [17], used by both
// tools in the paper's experiments (§V, cluster ratio 5 on the industrial
// instances, ratio 2 on the ISPD benchmarks). Cells are merged bottom-up
// by a connectivity/size score until the number of movable objects drops
// to (movable cells)/ratio; the placer then runs on the clustered netlist
// and the solution is projected back to the flat cells.
package cluster

import (
	"container/heap"
	"sort"

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

// scorePair is a candidate merge in the priority queue.
type scorePair struct {
	a, b  int32
	score float64
	stamp int64 // lazy invalidation: stamps of both endpoints at push time
}

type pairHeap []scorePair

func (h pairHeap) Len() int            { return len(h) }
func (h pairHeap) Less(i, j int) bool  { return h[i].score > h[j].score } // max-heap
func (h pairHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x interface{}) { *h = append(*h, x.(scorePair)) }
func (h *pairHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// BestChoice clusters the netlist. Fixed cells are never clustered; cells
// of different movebounds are never merged (a cluster must have a single
// movebound to stay placeable).
func BestChoice(n *netlist.Netlist, opt Options) *Clustering {
	numCells := n.NumCells()
	// Union-find state over flat cells; every flat cell starts as its own
	// cluster root.
	parent := make([]int32, numCells)
	area := make([]float64, numCells)
	movable := 0
	totalArea := 0.0
	for i := range parent {
		parent[i] = int32(i)
		area[i] = n.Cells[i].Size()
		if !n.Cells[i].Fixed {
			movable++
			totalArea += area[i]
		}
	}
	var find func(int32) int32
	find = func(v int32) int32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}

	target := movable
	if opt.Ratio > 1 {
		target = int(float64(movable) / opt.Ratio)
		if target < 1 {
			target = 1
		}
	}
	maxArea := 0.0
	if movable > 0 {
		maxArea = maxAreaFactor * totalArea / float64(movable)
	}

	// Adjacency with clique-model weights: w(net)/(p-1) per pair is too
	// dense for big nets; BestChoice uses w/(p-1) summed over shared
	// nets, and we cap the pairs per net at a window of neighbors.
	type edge struct {
		to int32
		w  float64
	}
	adj := make(map[int64]float64) // packed pair -> weight
	pack := func(a, b int32) int64 {
		if a > b {
			a, b = b, a
		}
		return int64(a)<<32 | int64(b)
	}
	for ni := range n.Nets {
		cells := n.CellsOnNet(netlist.NetID(ni))
		var mov []netlist.CellID
		for _, c := range cells {
			if !n.Cells[c].Fixed {
				mov = append(mov, c)
			}
		}
		p := len(mov)
		if p < 2 || p > 16 { // huge nets carry little clustering signal
			continue
		}
		w := n.Nets[ni].Weight / float64(p-1)
		for i := 0; i < p; i++ {
			for j := i + 1; j < p; j++ {
				adj[pack(int32(mov[i]), int32(mov[j]))] += w
			}
		}
	}
	neighbors := make([][]edge, numCells)
	// Deterministic order of adjacency expansion.
	keys := make([]int64, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		a, b := int32(k>>32), int32(k&0xffffffff)
		w := adj[k]
		neighbors[a] = append(neighbors[a], edge{to: b, w: w})
		neighbors[b] = append(neighbors[b], edge{to: a, w: w})
	}

	stamp := make([]int64, numCells)
	score := func(a, b int32) float64 {
		// BestChoice score: connectivity over summed area.
		w := adj[pack(a, b)]
		return w / (area[a] + area[b])
	}
	canMerge := func(a, b int32) bool {
		if n.Cells[a].Fixed || n.Cells[b].Fixed {
			return false
		}
		if n.Cells[a].Movebound != n.Cells[b].Movebound {
			return false
		}
		return area[a]+area[b] <= maxArea
	}
	h := &pairHeap{}
	pushBest := func(a int32) {
		// Push a's best current neighbor.
		best, bestS := int32(-1), 0.0
		for _, e := range neighbors[a] {
			b := find(e.to)
			if b == a || !canMerge(a, b) {
				continue
			}
			if s := score(a, b); best < 0 || s > bestS {
				best, bestS = b, s
			}
		}
		if best >= 0 {
			heap.Push(h, scorePair{a: a, b: best, score: bestS, stamp: stamp[a] + stamp[best]})
		}
	}
	for i := int32(0); i < int32(numCells); i++ {
		if !n.Cells[i].Fixed {
			pushBest(i)
		}
	}
	clusters := movable
	for clusters > target && h.Len() > 0 {
		top := heap.Pop(h).(scorePair)
		a, b := find(top.a), find(top.b)
		if a == b || top.stamp != stamp[a]+stamp[b] || !canMerge(a, b) {
			if a != b {
				pushBest(a)
			}
			continue
		}
		// Merge b into a (keep the smaller id as root for determinism).
		if b < a {
			a, b = b, a
		}
		parent[b] = a
		stamp[a]++
		area[a] += area[b]
		// Merge adjacency: fold b's edges into a.
		for _, e := range neighbors[b] {
			t := find(e.to)
			if t == a {
				continue
			}
			k := pack(a, t)
			adj[k] += e.w
			neighbors[a] = append(neighbors[a], edge{to: t, w: e.w})
		}
		clusters--
		pushBest(a)
	}

	return buildClustered(n, find)
}

// buildClustered materializes the clustered netlist from the union-find.
func buildClustered(n *netlist.Netlist, find func(int32) int32) *Clustering {
	numCells := n.NumCells()
	rootIdx := map[int32]netlist.CellID{}
	cl := &Clustering{
		Flat:   n,
		Parent: make([]netlist.CellID, numCells),
	}
	coarse := netlist.New(n.Area, n.RowHeight)
	// Deterministic: iterate flat cells in order; allocate cluster ids by
	// first appearance of the root.
	for i := int32(0); i < int32(numCells); i++ {
		root := find(i)
		id, ok := rootIdx[root]
		if !ok {
			c := n.Cells[root]
			id = coarse.AddCell(netlist.Cell{
				Name:      c.Name,
				Width:     0, // set below from accumulated area
				Height:    n.RowHeight,
				Fixed:     c.Fixed,
				Movebound: c.Movebound,
			})
			rootIdx[root] = id
			cl.Members = append(cl.Members, nil)
		}
		cl.Parent[i] = id
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
	for ni := range n.Nets {
		net := &n.Nets[ni]
		var pins []netlist.Pin
		seen := map[netlist.CellID]bool{}
		distinct := map[netlist.CellID]bool{}
		pads := 0
		for _, p := range net.Pins {
			if p.IsPad() {
				pins = append(pins, p)
				pads++
				continue
			}
			cid := cl.Parent[p.Cell]
			distinct[cid] = true
			if !seen[cid] {
				seen[cid] = true
				pins = append(pins, netlist.Pin{Cell: cid})
			}
		}
		if len(distinct)+pads < 2 {
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
