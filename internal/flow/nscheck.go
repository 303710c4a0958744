package flow

import "fmt"

// nsDebugCheck, when set, validates the simplex invariants after every
// pivot (tests only; quadratic cost).
var nsDebugCheck func(ns *netSimplex, b []float64, pivotNo int)

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
		if ns.depth[v] != ns.depth[p]+1 {
			return fmt.Errorf("pivot %d: node %d depth %d, parent %d depth %d",
				pivotNo, v, ns.depth[v], p, ns.depth[p])
		}
	}
	if root < 0 {
		return fmt.Errorf("pivot %d: no root", pivotNo)
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
	return nil
}
