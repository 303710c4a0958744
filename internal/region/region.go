// Package region implements movebounds and the region decomposition of the
// chip area (paper §II): Definition 1 (inclusive/exclusive movebounds),
// Definition 2 and Lemma 1 (regions via the Hanan grid), and the
// feasibility checks of Theorems 1 and 2 (a maximum flow, computed by
// internal/flow's MinCostFlow on zero-cost arcs).
package region

import (
	"errors"
	"fmt"
	"math"

	"fbplace/internal/flow"
	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

// Kind distinguishes the two movebound flavours of Definition 1.
type Kind int

const (
	// Inclusive movebounds constrain their own cells to the area but do
	// not block other cells.
	Inclusive Kind = iota
	// Exclusive movebounds additionally act as blockages for all other
	// cells.
	Exclusive
)

func (k Kind) String() string {
	if k == Exclusive {
		return "exclusive"
	}
	return "inclusive"
}

// Movebound is a named position constraint: a finite set of axis-parallel
// rectangles plus the inclusive/exclusive flag (Definition 1). Areas may
// be non-convex (multiple rectangles) and may overlap other movebounds.
type Movebound struct {
	Name string
	Area geom.RectSet
	Kind Kind
}

// Region is a maximal set of Hanan tiles with identical movebound
// coverage (Definition 2): every movebound either contains the whole
// region or none of it.
type Region struct {
	// Rects are the disjoint rectangles forming the region.
	Rects geom.RectSet
	// Covers[m] reports whether movebound m covers the region.
	Covers []bool
	// Blocked reports that the region lies inside some exclusive
	// movebound: only that movebound's cells may use it.
	Blocked bool
	// Exclusive is the index of the covering exclusive movebound, or -1.
	Exclusive int
	// Area is the geometric area of the region.
	Area float64
}

// Decomposition is a region decomposition of a chip area with respect to
// a set of movebounds.
type Decomposition struct {
	Chip       geom.Rect
	Movebounds []Movebound
	Regions    []Region
}

// Normalize validates and normalizes movebounds per §II: exclusive
// movebounds must not overlap each other (an error), and any overlap of an
// exclusive movebound with another movebound's area is removed from the
// other movebound ("detected and modified at the input").
func Normalize(chip geom.Rect, mbs []Movebound) ([]Movebound, error) {
	out := make([]Movebound, len(mbs))
	for i, m := range mbs {
		clipped := m.Area.Clip(chip)
		if len(clipped) == 0 {
			return nil, fmt.Errorf("region: movebound %q has empty area inside the chip", m.Name)
		}
		out[i] = Movebound{Name: m.Name, Area: clipped, Kind: m.Kind}
	}
	for i := range out {
		if out[i].Kind != Exclusive {
			continue
		}
		for j := range out {
			if i == j {
				continue
			}
			if out[j].Kind == Exclusive && out[i].Area.Overlaps(out[j].Area) {
				return nil, fmt.Errorf("region: exclusive movebounds %q and %q overlap", out[i].Name, out[j].Name)
			}
			if out[j].Kind != Exclusive && out[i].Area.Overlaps(out[j].Area) {
				out[j].Area = out[j].Area.Subtract(out[i].Area)
				if len(out[j].Area) == 0 {
					return nil, fmt.Errorf("region: movebound %q entirely shadowed by exclusive %q", out[j].Name, out[i].Name)
				}
			}
		}
	}
	return out, nil
}

// Decompose builds the region decomposition of the chip with respect to
// the (normalized) movebounds using the Hanan grid of Lemma 1. Tiles with
// identical coverage signatures are merged into one (possibly
// disconnected) region, yielding the maximal regions of Figure 1.
func Decompose(chip geom.Rect, mbs []Movebound) *Decomposition {
	var all geom.RectSet
	for _, m := range mbs {
		all = append(all, m.Area...)
	}
	grid := geom.NewHananGrid(chip, all)
	type sigKey string
	bySig := map[sigKey]int{}
	d := &Decomposition{Chip: chip, Movebounds: mbs}
	sig := make([]byte, len(mbs))
	for _, tile := range grid.Tiles() {
		c := tile.Center()
		for m := range mbs {
			if mbs[m].Area.Contains(c) {
				sig[m] = 1
			} else {
				sig[m] = 0
			}
		}
		key := sigKey(sig)
		idx, ok := bySig[key]
		if !ok {
			idx = len(d.Regions)
			bySig[key] = idx
			covers := make([]bool, len(mbs))
			blocked := false
			excl := -1
			for m := range mbs {
				covers[m] = sig[m] == 1
				if covers[m] && mbs[m].Kind == Exclusive {
					blocked = true
					excl = m
				}
			}
			d.Regions = append(d.Regions, Region{Covers: covers, Blocked: blocked, Exclusive: excl})
		}
		r := &d.Regions[idx]
		r.Rects = append(r.Rects, tile)
		r.Area += tile.Area()
	}
	return d
}

// Admissible reports whether a cell of movebound mb (netlist.NoMovebound
// for unconstrained cells) may be placed in region ri.
func (d *Decomposition) Admissible(mb int, ri int) bool {
	r := &d.Regions[ri]
	if r.Blocked {
		return mb == r.Exclusive
	}
	if mb == netlist.NoMovebound {
		return true
	}
	return r.Covers[mb]
}

// RegionOf returns the index of the region containing point p, or -1.
// Points on shared tile boundaries resolve to the first region in index
// order (deterministic).
func (d *Decomposition) RegionOf(p geom.Point) int {
	for i := range d.Regions {
		if d.Regions[i].Rects.Contains(p) {
			return i
		}
	}
	return -1
}

// ClassSizes returns the total movable cell area per movebound class.
// Index len(sizes)-1 is the unconstrained class; class m < len(movebounds)
// is movebound m.
func ClassSizes(n *netlist.Netlist, numMB int) []float64 {
	sizes := make([]float64, numMB+1)
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Fixed {
			continue
		}
		if c.Movebound == netlist.NoMovebound {
			sizes[numMB] += c.Size()
		} else {
			sizes[c.Movebound] += c.Size()
		}
	}
	return sizes
}

// Capacities returns the free capacity of each region: geometric area
// minus blockage overlap, scaled by the target density.
func (d *Decomposition) Capacities(blockages geom.RectSet, density float64) []float64 {
	caps := make([]float64, len(d.Regions))
	for i := range d.Regions {
		caps[i] = d.RegionCapacity(i, blockages, density)
	}
	return caps
}

// RegionCapacity computes the free capacity of a single region.
func (d *Decomposition) RegionCapacity(ri int, blockages geom.RectSet, density float64) float64 {
	free := 0.0
	for _, rect := range d.Regions[ri].Rects {
		free += freeArea(rect, blockages)
	}
	return free * density
}

// freeArea returns the area of rect not covered by blockages.
func freeArea(rect geom.Rect, blockages geom.RectSet) float64 {
	overlapping := blockages.Clip(rect)
	if len(overlapping) == 0 {
		return rect.Area()
	}
	return rect.Area() - overlapping.Area()
}

// FeasibilityReport is the result of a movebound feasibility check.
type FeasibilityReport struct {
	Feasible bool
	// TotalSize is size(C), the total movable cell area.
	TotalSize float64
	// Routed is the cell area the check's flow places on admissible
	// regions (the maximum flow); Feasible iff Routed ≈ TotalSize.
	Routed float64
}

// CheckFeasibility decides whether a fractional placement respecting the
// movebounds exists (Theorem 2): a flow on the clustered instance with
// one node per movebound class and one per region. Runtime is
// O(|C| + poly(|M|,|R|)), polynomial in the input.
func CheckFeasibility(n *netlist.Netlist, d *Decomposition, capacities []float64) FeasibilityReport {
	numMB := len(d.Movebounds)
	sizes := ClassSizes(n, numMB)
	numClasses := numMB + 1
	// Nodes: classes, then regions.
	g := flow.NewMinCostFlow(numClasses + len(d.Regions))
	regionNode := func(r int) int { return numClasses + r }
	total := 0.0
	for m, s := range sizes {
		if s <= 0 {
			continue
		}
		total += s
		g.SetSupply(m, s)
	}
	for ri := range d.Regions {
		if capacities[ri] <= 0 {
			continue
		}
		g.SetSupply(regionNode(ri), -capacities[ri])
		for m := 0; m < numClasses; m++ {
			if sizes[m] <= 0 {
				continue
			}
			mb := m
			if m == numMB {
				mb = netlist.NoMovebound
			}
			if d.Admissible(mb, ri) {
				g.AddArc(m, regionNode(ri), flow.Inf, 0)
			}
		}
	}
	return feasibility(g, total)
}

// CheckFeasibilityPerCell runs the full per-cell flow of Theorem 1.
// Exponentially clearer but linear-in-cells sized; used in tests and on
// small instances.
func CheckFeasibilityPerCell(n *netlist.Netlist, d *Decomposition, capacities []float64) FeasibilityReport {
	movable := n.MovableIDs()
	// Nodes: cells, then regions.
	g := flow.NewMinCostFlow(len(movable) + len(d.Regions))
	regionNode := func(r int) int { return len(movable) + r }
	total := 0.0
	for i, id := range movable {
		s := n.Cells[id].Size()
		total += s
		g.SetSupply(i, s)
		for ri := range d.Regions {
			if d.Admissible(n.Cells[id].Movebound, ri) && capacities[ri] > 0 {
				g.AddArc(i, regionNode(ri), flow.Inf, 0)
			}
		}
	}
	for ri := range d.Regions {
		if capacities[ri] > 0 {
			g.SetSupply(regionNode(ri), -capacities[ri])
		}
	}
	return feasibility(g, total)
}

// feasibility solves a check's flow: cell area (supply) on one side,
// region capacity (demand, which may exceed the supply) on the other,
// uncapacitated zero-cost arcs for admissibility. The solver routes all
// it can and reports the rest as unrouted. The arcs cost nothing and the
// instance carries no context, so infeasibility is its only failure; any
// other error would report nothing routed, never a false Feasible.
func feasibility(g *flow.MinCostFlow, total float64) FeasibilityReport {
	routed := total
	if _, err := g.Solve(); err != nil {
		routed = 0
		var inf *flow.ErrInfeasible
		if errors.As(err, &inf) {
			routed = total - inf.Unrouted
		}
	}
	return FeasibilityReport{
		Feasible:  routed >= total-feasEps(total),
		TotalSize: total,
		Routed:    routed,
	}
}

func feasEps(total float64) float64 {
	return 1e-6 * math.Max(1, total)
}

// CheckLegal verifies a placement against the movebounds (Definition 1):
// each cell entirely within A(mu(c)) and no foreign cell overlapping an
// exclusive movebound. Hairline overlaps from float rounding (area below
// 1e-6) are tolerated. It returns the number of violating cells.
func CheckLegal(n *netlist.Netlist, mbs []Movebound) int {
	const tol = 1e-6
	viol := 0
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Fixed {
			continue
		}
		r := n.CellRect(netlist.CellID(i))
		if c.Movebound != netlist.NoMovebound {
			// Shrink the cell by a hair before the containment test.
			if !mbs[c.Movebound].Area.ContainsRect(r.Expand(-1e-9)) {
				viol++
				continue
			}
		}
		for m := range mbs {
			if mbs[m].Kind != Exclusive || m == c.Movebound {
				continue
			}
			overlap := 0.0
			for _, a := range mbs[m].Area {
				overlap += a.Intersect(r).Area()
			}
			if overlap > tol {
				viol++
				break
			}
		}
	}
	return viol
}
