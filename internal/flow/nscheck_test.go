package flow

import "fmt"

// nsValidate checks the simplex invariants after pivot pivotNo (-1 for
// the initial basis); tests install it as nsDebugCheck.
func nsValidate(ns *netSimplex, b []float64, pivotNo int) error {
	// Conservation at every node.
	bal := make([]float64, ns.numNodes)
	for ai := range ns.from {
		f := ns.flow[ai]
		if f < -1e-9 {
			return fmt.Errorf("pivot %d: arc %d negative flow %g", pivotNo, ai, f)
		}
		if f > ns.cap[ai]+1e-9 {
			return fmt.Errorf("pivot %d: arc %d flow %g > cap %g", pivotNo, ai, f, ns.cap[ai])
		}
		bal[ns.from[ai]] -= f
		bal[ns.to[ai]] += f
	}
	for v := 0; v < ns.numNodes; v++ {
		want := -b[v]
		if diff := bal[v] - want; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("pivot %d: node %d balance %g want %g", pivotNo, v, bal[v], want)
		}
	}
	// Tree arcs: reduced cost zero; non-tree at bounds.
	for ai := range ns.from {
		rc := ns.cost[ai] + ns.pi[ns.from[ai]] - ns.pi[ns.to[ai]]
		switch ns.state[ai] {
		case stateTree:
			if rc > 1e-6 || rc < -1e-6 {
				return fmt.Errorf("pivot %d: tree arc %d rc %g", pivotNo, ai, rc)
			}
		case stateLower:
			if ns.flow[ai] > 1e-9 {
				return fmt.Errorf("pivot %d: lower arc %d flow %g", pivotNo, ai, ns.flow[ai])
			}
		case stateUpper:
			if ns.flow[ai] < ns.cap[ai]-1e-9 {
				return fmt.Errorf("pivot %d: upper arc %d flow %g cap %g", pivotNo, ai, ns.flow[ai], ns.cap[ai])
			}
		}
	}
	// Tree structure: parent/predArc/predUp must be mutually consistent
	// and every node must reach the root.
	root := -1
	for v := 0; v < ns.numNodes; v++ {
		if ns.parent[v] < 0 {
			if root >= 0 {
				return fmt.Errorf("pivot %d: two roots %d and %d", pivotNo, root, v)
			}
			root = v
			continue
		}
		p, ai := ns.parent[v], ns.predArc[v]
		if ai < 0 || int(ai) >= len(ns.from) || ns.state[ai] != stateTree {
			return fmt.Errorf("pivot %d: node %d pred arc %d not a tree arc", pivotNo, v, ai)
		}
		if ns.predUp[v] {
			if ns.from[ai] != int32(v) || ns.to[ai] != p {
				return fmt.Errorf("pivot %d: node %d up-arc %d endpoints %d->%d want %d->%d",
					pivotNo, v, ai, ns.from[ai], ns.to[ai], v, p)
			}
		} else if ns.from[ai] != p || ns.to[ai] != int32(v) {
			return fmt.Errorf("pivot %d: node %d down-arc %d endpoints %d->%d want %d->%d",
				pivotNo, v, ai, ns.from[ai], ns.to[ai], p, v)
		}
	}
	if root < 0 {
		return fmt.Errorf("pivot %d: no root", pivotNo)
	}
	// Strong feasibility, which Cunningham's leaving-arc rule keeps: every
	// tree arc can carry more flow towards the root, so a zero-flow tree
	// arc points at the root and a saturated one points away from it.
	for v := 0; v < ns.numNodes; v++ {
		if v == root {
			continue
		}
		ai := ns.predArc[v]
		if ns.flow[ai] == 0 && !ns.predUp[v] {
			return fmt.Errorf("pivot %d: zero-flow tree arc %d points away from the root", pivotNo, ai)
		}
		//fbpvet:floatok changeFlow snaps the leaving arc exactly onto its bound
		if ns.flow[ai] == ns.cap[ai] && ns.predUp[v] {
			return fmt.Errorf("pivot %d: saturated tree arc %d points at the root", pivotNo, ai)
		}
	}
	for v := 0; v < ns.numNodes; v++ {
		x, hops := v, 0
		for ns.parent[x] >= 0 {
			x = int(ns.parent[x])
			if hops++; hops > ns.numNodes {
				return fmt.Errorf("pivot %d: parent cycle through node %d", pivotNo, v)
			}
		}
		if x != root {
			return fmt.Errorf("pivot %d: node %d does not reach root", pivotNo, v)
		}
	}
	return nsValidateThread(ns, root, pivotNo)
}

// nsValidateThread checks the thread-indexed tree arrays against the
// parent links: thread is one preorder cycle through all nodes starting
// at the root, revThread its inverse, and succNum/lastSucc describe each
// subtree as the contiguous thread segment it must be.
func nsValidateThread(ns *netSimplex, root, pivotNo int) error {
	nn := ns.numNodes
	pos := make([]int, nn)
	for v := range pos {
		pos[v] = -1
	}
	x := root
	for i := 0; i < nn; i++ {
		if pos[x] >= 0 {
			return fmt.Errorf("pivot %d: thread revisits node %d after %d steps", pivotNo, x, i)
		}
		pos[x] = i
		x = int(ns.thread[x])
	}
	if x != root {
		return fmt.Errorf("pivot %d: thread does not close at the root after %d nodes", pivotNo, nn)
	}
	for v := 0; v < nn; v++ {
		if int(ns.revThread[ns.thread[v]]) != v {
			return fmt.Errorf("pivot %d: revThread[thread[%d]] = %d", pivotNo, v, ns.revThread[ns.thread[v]])
		}
		if p := ns.parent[v]; p >= 0 && pos[p] >= pos[v] {
			return fmt.Errorf("pivot %d: node %d at thread position %d precedes its parent %d at %d",
				pivotNo, v, pos[v], p, pos[p])
		}
	}
	// True subtree sizes, counted from the parent links.
	size := make([]int, nn)
	for v := 0; v < nn; v++ {
		for a := v; a >= 0; a = int(ns.parent[a]) {
			size[a]++
		}
	}
	// Contiguity: every node lies inside the thread interval of each of
	// its ancestors. An interval of size[a] positions that holds all
	// size[a] descendants of a holds nothing else.
	for v := 0; v < nn; v++ {
		for a := v; a >= 0; a = int(ns.parent[a]) {
			if pos[v] < pos[a] || pos[v] >= pos[a]+size[a] {
				return fmt.Errorf("pivot %d: node %d at thread position %d outside the subtree of %d (positions %d..%d)",
					pivotNo, v, pos[v], a, pos[a], pos[a]+size[a]-1)
			}
		}
	}
	for v := 0; v < nn; v++ {
		if int(ns.succNum[v]) != size[v] {
			return fmt.Errorf("pivot %d: node %d succNum %d, subtree size %d", pivotNo, v, ns.succNum[v], size[v])
		}
		if l := int(ns.lastSucc[v]); pos[l] != pos[v]+size[v]-1 {
			return fmt.Errorf("pivot %d: node %d lastSucc %d at thread position %d, subtree ends at %d",
				pivotNo, v, l, pos[l], pos[v]+size[v]-1)
		}
	}
	return nil
}
