// Package rql implements the force-directed comparison baselines of the
// paper's experiments: an RQL-style placer [25] (quadratic solve plus
// relaxed spreading via fixed-point anchors computed by FastPlace-style
// cell shifting) and a Kraftwerk2-style variant [21] (direct move-based
// spreading). The industrial RQL binary is proprietary; this re-implements
// the published algorithm so the Table II/IV/V/VII comparisons exercise
// the same algorithmic trade-offs.
//
// Movebound support is deliberately naive — anchor targets are projected
// into the movebound area each iteration, nothing guarantees containment —
// which reproduces the violation behaviour the paper reports for RQL on
// movebounded instances (Tables IV and V).
package rql

import (
	"context"
	"fmt"
	"math"

	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/qp"
	"fbplace/internal/region"
)

// Style selects the spreading flavour.
type Style int

const (
	// StyleRQL anchors cells to shifted targets with growing weights.
	StyleRQL Style = iota
	// StyleKraftwerk moves cells directly by the shift ("demand points"),
	// re-solving the quadratic system around the moved positions.
	StyleKraftwerk
)

// Config tunes the baseline placer. The spreading bin grid follows the
// movable cell count (about six cells per bin), the loop stops below
// stopOverflow, and the fixed-point anchors grow from anchorWeight; the
// quadratic solves use qp's default CG budget.
type Config struct {
	// TargetDensity is the bin capacity scaling (0.97 in the paper runs).
	TargetDensity float64
	// MaxIters bounds the spread iterations. Default 48.
	MaxIters int
	// Style selects RQL-like or Kraftwerk-like spreading.
	Style Style
	// Movebounds, when non-nil, enables the naive movebound projection.
	Movebounds []region.Movebound
}

const (
	// stopOverflow stops the spreading once overflow / movable area falls
	// below it.
	stopOverflow = 0.02
	// anchorWeight is the base fixed-point weight; it grows linearly per
	// iteration.
	anchorWeight = 0.01
)

func (c *Config) fill() {
	if c.TargetDensity == 0 {
		c.TargetDensity = 0.97
	}
	if c.MaxIters == 0 {
		c.MaxIters = 48
	}
}

// binsFor sizes the square spreading bin grid for the movable cell count.
func binsFor(movable int) int {
	k := int(math.Sqrt(float64(movable)/6)) + 1
	if k < 2 {
		k = 2
	}
	if k > 256 {
		k = 256
	}
	return k
}

// Report summarizes a baseline run.
type Report struct {
	Iters         int
	FinalOverflow float64 // overflow / movable area
}

// Place runs the force-directed global placement on the netlist in place.
func Place(n *netlist.Netlist, cfg Config) (Report, error) {
	return PlaceCtx(context.Background(), n, cfg)
}

// PlaceCtx is Place under a context: every quadratic solve polls ctx, and
// the loop checks it once per spreading iteration and once per movebound
// weight, returning its error when it is done.
func PlaceCtx(ctx context.Context, n *netlist.Netlist, cfg Config) (Report, error) {
	cfg.fill()
	movable := n.MovableIDs()
	if len(movable) == 0 {
		return Report{}, nil
	}
	bins := binsFor(len(movable))
	totalArea := n.TotalMovableArea()
	blockages := n.FixedRects()
	// Every solve of the iteration loop runs sequentially; share one
	// workspace across them.
	qopt := qp.Options{Workspace: qp.NewWorkspace(), Ctx: ctx}

	// Initial unconstrained QP.
	if err := qp.Solve(n, nil, qopt); err != nil {
		return Report{}, fmt.Errorf("rql: initial QP: %w", err)
	}

	anchors := make([]qp.Anchor, len(movable))
	rep := Report{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return rep, fmt.Errorf("rql: iteration %d: %w", iter, err)
		}
		rep.Iters = iter
		dm := grid.NewDensityMap(n.Area, bins, bins, blockages, cfg.TargetDensity)
		dm.Accumulate(n)
		rep.FinalOverflow = dm.Overflow() / totalArea
		if rep.FinalOverflow < stopOverflow {
			break
		}
		targets := shiftTargets(n, dm, movable)
		// Naive movebound handling: project the target into the cell's
		// movebound area (the cell itself may still end up outside).
		if cfg.Movebounds != nil {
			for i, id := range movable {
				mb := n.Cells[id].Movebound
				if mb == netlist.NoMovebound {
					continue
				}
				targets[i], _ = cfg.Movebounds[mb].Area.Nearest(targets[i])
			}
		}
		switch cfg.Style {
		case StyleKraftwerk:
			// Move cells directly, then relax connectivity around the
			// moved positions with a moderate constant pull.
			for i, id := range movable {
				n.SetPos(id, targets[i])
				anchors[i] = qp.Anchor{Cell: id, Target: targets[i], Weight: anchorWeight * 8}
			}
		default:
			w := anchorWeight * float64(iter)
			for i, id := range movable {
				anchors[i] = qp.Anchor{Cell: id, Target: targets[i], Weight: w}
			}
		}
		// Linearization (the "L" of RQL): bound-to-bound springs weighted
		// by current distances make the quadratic objective track HPWL.
		opt := qopt
		opt.NetModel = qp.ModelB2B
		if err := qp.Solve(n, anchors, opt); err != nil {
			return rep, fmt.Errorf("rql: iteration %d QP: %w", iter, err)
		}
	}
	// Naive movebound enforcement phase: pull each movebound cell toward
	// the projection of its current position into its area with growing
	// weights. Connectivity can still hold cells outside — the residual
	// violations correspond to the "viol." column the paper reports for
	// RQL on movebounded designs.
	if cfg.Movebounds != nil {
		for _, w := range []float64{0.3, 1, 3, 10} {
			if err := ctx.Err(); err != nil {
				return rep, fmt.Errorf("rql: movebound phase: %w", err)
			}
			var mbAnchors []qp.Anchor
			for _, id := range movable {
				mb := n.Cells[id].Movebound
				if mb == netlist.NoMovebound {
					continue
				}
				target, _ := cfg.Movebounds[mb].Area.Nearest(n.Pos(id))
				mbAnchors = append(mbAnchors, qp.Anchor{Cell: id, Target: target, Weight: w})
			}
			if len(mbAnchors) == 0 {
				break
			}
			if err := qp.Solve(n, mbAnchors, qopt); err != nil {
				return rep, fmt.Errorf("rql: movebound phase: %w", err)
			}
		}
	}
	return rep, nil
}

// shiftTargets computes FastPlace-style cell-shifting targets: bin
// boundaries stretch away from overfull bins, and cells are remapped
// piecewise-linearly, first in x per bin row, then in y per bin column.
func shiftTargets(n *netlist.Netlist, dm *grid.DensityMap, movable []netlist.CellID) []geom.Point {
	g := dm.Grid
	delta := 0.5 * averageCapacity(dm)
	targets := make([]geom.Point, len(movable))
	newXB := stretchedBoundaries(dm, delta, true)
	newYB := stretchedBoundaries(dm, delta, false)
	for i, id := range movable {
		p := n.Pos(id)
		ix, iy := g.Locate(p)
		bin := g.Window(ix, iy)
		// x mapping within row iy.
		ob0, ob1 := bin.Xlo, bin.Xhi
		nb0, nb1 := newXB[iy][ix], newXB[iy][ix+1]
		x := remap(p.X, ob0, ob1, nb0, nb1)
		// y mapping within column ix.
		ob0, ob1 = bin.Ylo, bin.Yhi
		nb0, nb1 = newYB[ix][iy], newYB[ix][iy+1]
		y := remap(p.Y, ob0, ob1, nb0, nb1)
		targets[i] = n.Area.ClampPoint(geom.Point{X: x, Y: y})
	}
	return targets
}

func averageCapacity(dm *grid.DensityMap) float64 {
	total := 0.0
	for _, c := range dm.Capacity {
		total += c
	}
	return total / float64(len(dm.Capacity))
}

// stretchedBoundaries computes, per bin row (horizontal=true) or column,
// the stretched boundary coordinates: len rows x (bins+1).
func stretchedBoundaries(dm *grid.DensityMap, delta float64, horizontal bool) [][]float64 {
	g := dm.Grid
	nBins, nRows := g.Nx, g.Ny
	lo, hi := g.Chip.Xlo, g.Chip.Xhi
	if !horizontal {
		nBins, nRows = g.Ny, g.Nx
		lo, hi = g.Chip.Ylo, g.Chip.Yhi
	}
	usage := func(row, i int) float64 {
		if horizontal {
			return dm.Usage[g.Index(i, row)]
		}
		return dm.Usage[g.Index(row, i)]
	}
	oldB := make([]float64, nBins+1)
	for i := 0; i <= nBins; i++ {
		oldB[i] = lo + (hi-lo)*float64(i)/float64(nBins)
	}
	out := make([][]float64, nRows)
	for row := 0; row < nRows; row++ {
		nb := make([]float64, nBins+1)
		nb[0], nb[nBins] = lo, hi
		for i := 1; i < nBins; i++ {
			uL := usage(row, i-1) + delta
			uR := usage(row, i) + delta
			// Boundary shifts toward the emptier side (FastPlace eq. 7).
			nb[i] = (oldB[i-1]*uR + oldB[i+1]*uL) / (uL + uR)
		}
		// Enforce monotonicity against extreme ratios.
		for i := 1; i <= nBins; i++ {
			if nb[i] < nb[i-1] {
				nb[i] = nb[i-1]
			}
		}
		out[row] = nb
	}
	return out
}

func remap(v, ob0, ob1, nb0, nb1 float64) float64 {
	if ob1 <= ob0 {
		return v
	}
	t := (v - ob0) / (ob1 - ob0)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return nb0 + t*(nb1-nb0)
}
