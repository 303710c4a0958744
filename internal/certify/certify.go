// Package certify implements independent result certification for the
// placement pipeline: end-to-end checks that re-derive, from first
// principles, whether a solver's answer is actually a solution — without
// trusting the solver that produced it. The certificates mirror the
// paper's exact conditions (Theorem 3 feasibility/optimality for the flow
// model, Definition 1 legality for placements) and exist because the hot
// path runs fast solvers (network simplex, the condensed transport
// engine, pair-pass realization) whose correctness would otherwise be
// asserted only in tests.
//
// Certification failures are reported as *Error carrying the layer, the
// level, the violated invariant and a concrete witness, so the placer's
// callers and the daemon's quarantine (internal/serve) can distinguish
// a wrong answer from an engine failure. Context cancellation is returned
// as the context's error, never as *Error: an aborted check says nothing
// about the result.
package certify

import (
	"context"
	"fmt"
	"math"

	"fbplace/internal/fbp"
	"fbplace/internal/flow"
	"fbplace/internal/grid"
	"fbplace/internal/legalize"
	"fbplace/internal/metrics"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
	"fbplace/internal/transport"
)

// Error reports a failed certificate. It identifies the pipeline layer,
// the level the check ran at (-1 for final checks), the invariant that
// does not hold and a concrete witness of the violation.
type Error struct {
	// Layer is "flow", "transport", "partition", "positions" or
	// "placement".
	Layer string
	// Level is the global-placement level the check ran at, -1 for
	// whole-placement (final) checks.
	Level int
	// Invariant names the violated condition (e.g. "complementary-
	// slackness", "row-conservation", "hpwl-mismatch").
	Invariant string
	// Witness pins the violation to concrete data: node/arc/cell indices
	// and the offending values.
	Witness string
}

func (e *Error) Error() string {
	return fmt.Sprintf("certify: %s level %d: %s violated: %s", e.Layer, e.Level, e.Invariant, e.Witness)
}

// Checker runs the per-layer certificates. The zero value checks without
// observability or cancellation; all methods are safe for concurrent use
// from multiple goroutines (realization workers certify transportation
// solutions in parallel).
type Checker struct {
	// Obs, when non-nil, records certification spans and counters (nil
	// receivers are safe throughout internal/obs, so a zero Checker works).
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled during large checks with the same
	// bounded cadence as the solvers, so cancellation stays prompt while
	// certifying big levels.
	Ctx context.Context
	// Level tags emitted errors with the global-placement level; final
	// (whole-placement) checks use -1.
	Level int
}

// pollEvery is the iteration cadence of context polls inside the large
// certificate loops — the same order of magnitude the solvers use, so an
// aborted run cancels its certification as promptly as its solves.
const pollEvery = 1 << 14

// poll returns the context's error every pollEvery-th call site hit.
func (c *Checker) poll(i int) error {
	if c.Ctx != nil && i&(pollEvery-1) == 0 {
		return c.Ctx.Err()
	}
	return nil
}

func (c *Checker) fail(layer, invariant, witness string) error {
	if c.Obs != nil {
		c.Obs.Count("certify.violation", 1)
	}
	return &Error{Layer: layer, Level: c.Level, Invariant: invariant, Witness: witness}
}

// Flow certifies the optimality of a solved min-cost-flow instance via
// LP duality: the exported node potentials must be dual feasible and
// complementary slackness must hold on every real arc, and flow must be
// conserved at every node (Theorem 3 conditions). This catches wrong tree
// flows or potentials — a class of defect the solver's own exit criteria
// cannot see. A solve that exported no certificate (failed run)
// passes vacuously: the caller already has its error.
func (c *Checker) Flow(g *flow.MinCostFlow) error {
	d := g.Duals()
	if d == nil {
		return nil
	}
	sp := c.Obs.StartSpan("certify.flow")
	defer sp.End()
	n := len(d.Pot)
	rcTol := 1e-6 * d.CostScale
	totalSupply := 0.0
	for v := 0; v < n; v++ {
		if b := g.Supply(v); b > flow.Eps {
			totalSupply += b
		}
	}
	amtTol := 1e-6 * math.Max(1, totalSupply)
	// Net outflow per real node, accumulated over the real arcs.
	net := make([]float64, n)
	for id := 0; id < d.Arcs; id++ {
		if err := c.poll(id); err != nil {
			return err
		}
		from, to, capacity, cost := g.ArcInfo(flow.ArcID(id))
		f := g.Flow(flow.ArcID(id))
		if f < -amtTol || f > capacity+amtTol {
			return c.fail("flow", "capacity-feasibility", fmt.Sprintf(
				"arc %d (%d->%d) carries %g outside [0, %g]", id, from, to, f, capacity))
		}
		if from < n {
			net[from] += f
		}
		if to < n {
			net[to] -= f
		}
		if from >= n || to >= n {
			continue // solver-internal arc endpoints carry no certificate
		}
		rc := cost + d.Pot[from] - d.Pot[to]
		if rc > rcTol && f > amtTol {
			return c.fail("flow", "complementary-slackness", fmt.Sprintf(
				"arc %d (%d->%d) has reduced cost %g > 0 but carries flow %g", id, from, to, rc, f))
		}
		if rc < -rcTol {
			if math.IsInf(capacity, 1) {
				return c.fail("flow", "dual-feasibility", fmt.Sprintf(
					"uncapacitated arc %d (%d->%d) has reduced cost %g < 0", id, from, to, rc))
			}
			if capacity-f > amtTol {
				return c.fail("flow", "complementary-slackness", fmt.Sprintf(
					"arc %d (%d->%d) has reduced cost %g < 0 but is not saturated (%g of %g)",
					id, from, to, rc, f, capacity))
			}
		}
	}
	// Conservation: supply nodes emit their full supply (the solvers
	// tolerate up to amtTol total unrouted before declaring infeasibility),
	// demand nodes absorb at most their demand, interior nodes balance.
	for v := 0; v < n; v++ {
		if err := c.poll(v); err != nil {
			return err
		}
		b := g.Supply(v)
		switch {
		case b > flow.Eps:
			if math.Abs(net[v]-b) > amtTol {
				return c.fail("flow", "conservation", fmt.Sprintf(
					"supply node %d ships %g of supply %g", v, net[v], b))
			}
		case b < -flow.Eps:
			if net[v] > amtTol || net[v] < b-amtTol {
				return c.fail("flow", "conservation", fmt.Sprintf(
					"demand node %d absorbs %g outside [0, %g]", v, -net[v], -b))
			}
		default:
			if math.Abs(net[v]) > amtTol {
				return c.fail("flow", "conservation", fmt.Sprintf(
					"interior node %d has net outflow %g", v, net[v]))
			}
		}
	}
	sp.Attr("arcs", float64(d.Arcs))
	return nil
}

// Transport certifies a transportation solution against its instance:
// every source ships exactly its supply (row conservation), every sink
// stays within its capacity plus the overflow the solution reports
// (column feasibility), portions ride admissible arcs only, and overflow
// is nonnegative and taken only by sinks filled to capacity. Counters,
// not spans: the check runs once per realization transportation, from
// concurrent workers.
func (c *Checker) Transport(p *transport.Problem, sol *transport.Solution) error {
	if c.Obs != nil {
		c.Obs.Count("certify.transport", 1)
	}
	load := make([]float64, len(p.Capacity))
	for i, ps := range sol.Assign {
		if err := c.poll(i); err != nil {
			return err
		}
		shipped := 0.0
		for _, portion := range ps {
			if portion.Sink < 0 || portion.Sink >= len(p.Capacity) {
				return c.fail("transport", "sink-range", fmt.Sprintf(
					"source %d assigned to sink %d of %d", i, portion.Sink, len(p.Capacity)))
			}
			if portion.Amount < -flow.Eps {
				return c.fail("transport", "non-negativity", fmt.Sprintf(
					"source %d ships %g to sink %d", i, portion.Amount, portion.Sink))
			}
			admissible := false
			for _, a := range p.Arcs[i] {
				if a.Sink == portion.Sink {
					admissible = true
					break
				}
			}
			if !admissible {
				return c.fail("transport", "admissibility", fmt.Sprintf(
					"source %d ships %g to inadmissible sink %d", i, portion.Amount, portion.Sink))
			}
			shipped += portion.Amount
			load[portion.Sink] += portion.Amount
		}
		if tol := 1e-6 * math.Max(1, p.Supply[i]); math.Abs(shipped-p.Supply[i]) > tol {
			return c.fail("transport", "row-conservation", fmt.Sprintf(
				"source %d ships %g of supply %g", i, shipped, p.Supply[i]))
		}
	}
	if len(sol.Overflow) != len(p.Capacity) {
		return c.fail("transport", "overflow-shape", fmt.Sprintf(
			"%d overflow entries for %d sinks", len(sol.Overflow), len(p.Capacity)))
	}
	for j, l := range load {
		over := sol.Overflow[j]
		tol := 1e-6 * math.Max(1, p.Capacity[j]+over)
		if over < 0 {
			return c.fail("transport", "overflow-sign", fmt.Sprintf(
				"sink %d reports overflow %g", j, over))
		}
		if over > 0 && l < p.Capacity[j]-tol {
			return c.fail("transport", "overflow-with-slack", fmt.Sprintf(
				"sink %d takes overflow %g at load %g under capacity %g", j, over, l, p.Capacity[j]))
		}
		if l > p.Capacity[j]+over+tol {
			return c.fail("transport", "column-feasibility", fmt.Sprintf(
				"sink %d loaded %g over capacity %g plus overflow %g", j, l, p.Capacity[j], over))
		}
	}
	return nil
}

// Partition certifies a realized partitioning: every movable cell holds a
// valid window-region assignment admissible for its movebound, its
// position lies inside the assigned region piece, and the total region
// overload does not exceed the rounding overflow the result itself
// reports (capacity feasibility up to the declared majority-rounding
// drift).
func (c *Checker) Partition(n *netlist.Netlist, wr *grid.WindowRegions, res *fbp.Result) error {
	sp := c.Obs.StartSpan("certify.partition")
	defer sp.End()
	if len(res.CellRegion) != n.NumCells() {
		return c.fail("partition", "assignment-shape", fmt.Sprintf(
			"%d assignments for %d cells", len(res.CellRegion), n.NumCells()))
	}
	const posTol = 1e-6
	load := make(map[[2]int32]float64)
	for i := range n.Cells {
		if err := c.poll(i); err != nil {
			return err
		}
		cell := &n.Cells[i]
		ref := res.CellRegion[i]
		if cell.Fixed {
			if ref.Window != -1 || ref.Index != -1 {
				return c.fail("partition", "fixed-unassigned", fmt.Sprintf(
					"fixed cell %d assigned to window %d region %d", i, ref.Window, ref.Index))
			}
			continue
		}
		if ref.Window < 0 || int(ref.Window) >= len(wr.PerWin) ||
			ref.Index < 0 || int(ref.Index) >= len(wr.PerWin[ref.Window]) {
			return c.fail("partition", "assignment-range", fmt.Sprintf(
				"cell %d assigned to window %d region %d", i, ref.Window, ref.Index))
		}
		reg := &wr.PerWin[ref.Window][ref.Index]
		if !wr.Decomp.Admissible(cell.Movebound, reg.Region) {
			return c.fail("partition", "admissibility", fmt.Sprintf(
				"cell %d (movebound %d) assigned to region %d", i, cell.Movebound, reg.Region))
		}
		p := n.Pos(netlist.CellID(i))
		inside := false
		for _, rect := range reg.Rects {
			if rect.Expand(posTol).Contains(p) {
				inside = true
				break
			}
		}
		if !inside {
			return c.fail("partition", "containment", fmt.Sprintf(
				"cell %d at (%g, %g) outside its region piece (window %d region %d)",
				i, p.X, p.Y, ref.Window, ref.Index))
		}
		load[[2]int32{ref.Window, ref.Index}] += cell.Size()
	}
	overflow := 0.0
	for key, l := range load {
		if over := l - wr.PerWin[key[0]][key[1]].Capacity; over > 0 {
			overflow += over
		}
	}
	if tol := 1e-6 * math.Max(1, n.TotalMovableArea()); overflow > res.RoundingOverflow+tol {
		return c.fail("partition", "capacity-feasibility", fmt.Sprintf(
			"total region overload %g exceeds reported rounding overflow %g",
			overflow, res.RoundingOverflow))
	}
	sp.Attr("cells", float64(n.NumCells()))
	return nil
}

// Positions certifies the basic sanity of a placement state: every cell
// position finite and inside the chip area. It is the cheapest check and
// the one that catches raw memory corruption (the certify.corrupt fault
// site bit-flips exactly one coordinate).
func (c *Checker) Positions(n *netlist.Netlist) error {
	sp := c.Obs.StartSpan("certify.positions")
	defer sp.End()
	area := n.Area.Expand(1e-9)
	for i := range n.X {
		if err := c.poll(i); err != nil {
			return err
		}
		x, y := n.X[i], n.Y[i]
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return c.fail("positions", "finite", fmt.Sprintf(
				"cell %d at (%g, %g)", i, x, y))
		}
		if n.Cells[i].Fixed {
			continue // fixed cells may legitimately sit on/over the boundary
		}
		if !area.Contains(n.Pos(netlist.CellID(i))) {
			return c.fail("positions", "inside-chip", fmt.Sprintf(
				"cell %d at (%g, %g) outside chip %v", i, x, y, n.Area))
		}
	}
	return nil
}

// Reported is the slice of a placer report the final certificate
// cross-checks against an independent recomputation.
type Reported struct {
	// HPWL, Violations and Overlaps as reported by the run.
	HPWL       float64
	Violations int
	Overlaps   int
	// Legalized is true when the run legalized (overlaps must then be 0).
	Legalized bool
	// TargetDensity is the run's target density (density sanity check).
	TargetDensity float64
}

// Placement certifies a final placement against its report: positions
// sane, overlap and movebound-violation counts matching an independent
// recount (and zero overlaps after legalization), and the reported HPWL
// matching a recomputation within an ulp-scaled tolerance (the recompute
// may sum nets in a different order than the reporting path did).
func (c *Checker) Placement(n *netlist.Netlist, mbs []region.Movebound, rep Reported) error {
	if err := c.Positions(n); err != nil {
		return err
	}
	sp := c.Obs.StartSpan("certify.placement")
	defer sp.End()
	hpwl := n.HPWL()
	tol := math.Max(1, math.Abs(rep.HPWL)) * float64(n.NumNets()+1) * 0x1p-52
	if math.Abs(hpwl-rep.HPWL) > tol {
		return c.fail("placement", "hpwl-match", fmt.Sprintf(
			"recomputed HPWL %g, reported %g (tolerance %g)", hpwl, rep.HPWL, tol))
	}
	overlaps := legalize.VerifyNoOverlaps(n)
	if overlaps != rep.Overlaps {
		return c.fail("placement", "overlap-match", fmt.Sprintf(
			"recounted %d overlaps, reported %d", overlaps, rep.Overlaps))
	}
	if rep.Legalized && overlaps != 0 {
		return c.fail("placement", "legalized-no-overlaps", fmt.Sprintf(
			"%d overlapping cells after legalization", overlaps))
	}
	viol := region.CheckLegal(n, mbs)
	if viol != rep.Violations {
		return c.fail("placement", "violation-match", fmt.Sprintf(
			"recounted %d movebound violations, reported %d", viol, rep.Violations))
	}
	if rep.TargetDensity > 0 {
		pen := metrics.DensityPenalty(n, rep.TargetDensity, 0)
		if math.IsNaN(pen) || math.IsInf(pen, 0) || pen < 0 {
			return c.fail("placement", "density-sane", fmt.Sprintf(
				"density penalty recomputed as %g", pen))
		}
		sp.Attr("density.penalty", pen)
	}
	sp.Attr("hpwl", hpwl)
	return nil
}
