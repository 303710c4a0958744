// Package qp implements quadratic netlength minimization (paper §III),
// the analytic engine of the placer: nets become springs (clique model for
// small nets, star model for large ones), fixed pins and pads enter the
// right-hand side, and optional anchors pull cells toward targets (window
// centers during partitioning, spread positions in the RQL baseline).
// The x and y systems are independent and solved with preconditioned CG,
// concurrently; under the clique/star model they share one matrix.
//
// SolveSubset supports the local QP of the realization step (§IV.B):
// only the given cells are variables, everything else is fixed at its
// current position.
package qp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"fbplace/internal/degrade"
	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/sparse"
)

// NetModel selects how multi-pin nets become springs.
type NetModel int

const (
	// ModelCliqueStar uses a clique for small nets and a star for large
	// ones (position-independent; the default).
	ModelCliqueStar NetModel = iota
	// ModelB2B is the bound-to-bound model of Kraftwerk2 [21]: per axis,
	// the two boundary pins connect to each other and to every inner pin
	// with weights 2/((p-1)*distance), which makes the quadratic optimum
	// approximate the HPWL optimum. Weights depend on the current
	// placement, so B2B is used on re-solves within the placement loop.
	ModelB2B
)

// Anchor is a spring from a cell to a fixed target point.
type Anchor struct {
	Cell   netlist.CellID
	Target geom.Point
	Weight float64
}

const (
	// cliqueThreshold is the largest pin count modeled as a clique; nets
	// above it use the star model.
	cliqueThreshold = 6
	// regularization is a tiny spring from every variable cell to the
	// chip center that keeps components without fixed connections
	// non-singular.
	regularization = 1e-8
	// b2bMinDist floors the pin distances in B2B weights (one row height)
	// to keep the weights bounded for coincident pins.
	b2bMinDist = 1.0
)

// Options tunes the quadratic solve: the CG budget and the net model,
// which differ between the placer's top-level solves, the realization-
// local QP and the RQL baseline, plus per-call plumbing. The clique
// threshold, the centering spring and the B2B distance floor are
// package constants, and every solution is clamped into the chip area.
type Options struct {
	// Tol is the CG relative residual target. Default 1e-6.
	Tol float64
	// MaxIter bounds CG iterations. Default per sparse.CGOptions.
	MaxIter int
	// ReadX, ReadY, when non-nil, override the positions of non-variable
	// cells (length NumCells). Parallel realization passes a snapshot
	// taken at wave start so that concurrent local QPs on disjoint window
	// blocks are race-free and deterministic.
	ReadX, ReadY []float64
	// BestEffort accepts the CG iterate even when the iteration budget is
	// exhausted before the tolerance is met. The realization-local QP
	// only steers transportation costs, so an approximate solution is
	// fine there.
	BestEffort bool
	// NetModel selects clique/star (default) or bound-to-bound springs.
	NetModel NetModel
	// Obs, when non-nil, records QP solve counts and (via sparse) CG
	// iteration counters and the final relative residual.
	Obs *obs.Recorder
	// Stats, when non-nil, accumulates solver effort across calls. Safe
	// to share between concurrent solves (the realization-local QPs):
	// fields are updated atomically.
	Stats *SolveStats
	// Ctx, when non-nil, is threaded into the CG solves; a canceled or
	// expired context aborts the solve with the context's error.
	Ctx context.Context
	// Workspace, when non-nil, supplies reusable scratch (epoch-stamped
	// variable/net marks, pin buffers, matrix builders, rhs vectors) so
	// steady-state SolveSubset calls allocate O(block), not O(netlist).
	// A workspace must not be shared by concurrent solves; the parallel
	// realization threads one per worker. Results are bit-identical with
	// and without a workspace.
	Workspace *Workspace
	// Degrade, when non-nil, arms the non-convergence fallback chain: a CG
	// solve that exhausts its budget is retried once with a 4x iteration
	// budget, and if it still fails the positions are left at the warm
	// start (the last anchor solution), a degradation event is recorded,
	// and SolveSubset returns nil. Context errors never trigger the
	// fallback. Callers without a degrade log keep the hard-error
	// behavior.
	Degrade *degrade.Log
}

// SolveStats accumulates quadratic-solver effort. The counters are
// incremented atomically from concurrent realization workers; read them
// through Snapshot and seed them through Restore so every access stays
// atomic (the fbpvet atomicmix analyzer enforces this in-package, the
// accessors extend the discipline across packages).
type SolveStats struct {
	// Solves counts completed Solve/SolveSubset calls.
	Solves int64
	// CGIters is the total conjugate-gradient iterations over both axes.
	CGIters int64
}

func (s *SolveStats) add(iters int) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.Solves, 1)
	atomic.AddInt64(&s.CGIters, int64(iters))
}

// Snapshot atomically reads both counters. Safe while solves are still
// running on other goroutines.
func (s *SolveStats) Snapshot() (solves, cgIters int64) {
	return atomic.LoadInt64(&s.Solves), atomic.LoadInt64(&s.CGIters)
}

// Restore atomically seeds both counters, e.g. from a resume checkpoint.
func (s *SolveStats) Restore(solves, cgIters int64) {
	atomic.StoreInt64(&s.Solves, solves)
	atomic.StoreInt64(&s.CGIters, cgIters)
}

func (o *Options) fill() {
	if o.Tol == 0 {
		o.Tol = 1e-6
	}
}

// Solve minimizes the quadratic netlength over all movable cells and
// writes the optimal positions into the netlist.
func Solve(n *netlist.Netlist, anchors []Anchor, opt Options) error {
	return SolveSubset(n, n.MovableIDs(), anchors, opt)
}

// netPin is one pin of a net as seen by the local system assembly.
type netPin struct {
	varIdx int32      // variable index or -1
	pos    geom.Point // absolute position if fixed, offset if variable
	cur    geom.Point // current absolute position (B2B weights/bounds)
}

// SolveSubset minimizes the quadratic netlength over the given cells only;
// all other cells are treated as fixed at their current positions.
// Anchors referencing cells outside the subset are ignored.
//
// The system is assembled by walking only the nets incident to the subset
// (via the netlist's cell -> net index), in ascending net order — the same
// nets, in the same order, that a full netlist scan would emit, so results
// are bit-identical to one while the cost is proportional to the block,
// not the chip. The obs counter "qp.netsVisited" records the incident-net
// count per call.
func SolveSubset(n *netlist.Netlist, subset []netlist.CellID, anchors []Anchor, opt Options) error {
	opt.fill()
	if len(subset) == 0 {
		return nil
	}
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	} else if ws.uses > 0 {
		opt.Obs.Count("qp.wsReuse", 1)
	}
	ws.begin(n.NumCells(), n.NumNets())
	epoch := ws.epoch
	// Variable index per subset cell; epoch stamps replace the O(NumCells)
	// "-1" fill a dense varOf array would need per call.
	for vi, id := range subset {
		if n.Cells[id].Fixed {
			return fmt.Errorf("qp: subset contains fixed cell %d (%s)", id, n.Cells[id].Name)
		}
		ws.varIdx[id] = int32(vi)
		ws.varEpoch[id] = epoch
	}
	nv := len(subset)
	varOf := func(c netlist.CellID) int32 {
		if ws.varEpoch[c] == epoch {
			return ws.varIdx[c]
		}
		return -1
	}

	// Gather the nets incident to the subset, deduplicated by epoch stamp
	// and sorted ascending: ascending net order reproduces the emission
	// (and thus float summation) order of a full netlist scan bit-for-bit.
	idx := n.NetIndex()
	nets := ws.netIDs[:0]
	for _, id := range subset {
		for _, ni := range idx.Nets(id) {
			if ws.netEpoch[ni] != epoch {
				ws.netEpoch[ni] = epoch
				nets = append(nets, int32(ni))
			}
		}
	}
	sort.Sort(int32s(nets))
	ws.netIDs = nets
	opt.Obs.Count("qp.netsVisited", float64(len(nets)))

	// Collect pins per incident net and assign star variables: nets with
	// > cliqueThreshold pins get a star node. Every gathered net has at
	// least one variable pin by construction of the index, so the old
	// per-net hasVar scan is gone entirely.
	ws.pins = ws.pins[:0]
	ws.pinOff = ws.pinOff[:0]
	ws.starOf = ws.starOf[:0]
	numStars := 0
	for _, ni := range nets {
		net := &n.Nets[ni]
		ws.pinOff = append(ws.pinOff, int32(len(ws.pins)))
		star := int32(-1)
		if len(net.Pins) >= 2 {
			for _, p := range net.Pins {
				if !p.IsPad() && varOf(p.Cell) >= 0 {
					cur := geom.Point{X: n.X[p.Cell] + p.Offset.X, Y: n.Y[p.Cell] + p.Offset.Y}
					ws.pins = append(ws.pins, netPin{varIdx: varOf(p.Cell), pos: p.Offset, cur: cur})
				} else {
					// With a snapshot, never touch the live position of a
					// non-variable cell: another unit of the same wave may be
					// writing it concurrently.
					var pos geom.Point
					if opt.ReadX != nil && !p.IsPad() {
						pos = geom.Point{X: opt.ReadX[p.Cell] + p.Offset.X, Y: opt.ReadY[p.Cell] + p.Offset.Y}
					} else {
						pos = n.PinPos(p)
					}
					ws.pins = append(ws.pins, netPin{varIdx: -1, pos: pos, cur: pos})
				}
			}
			if opt.NetModel == ModelCliqueStar && len(net.Pins) > cliqueThreshold {
				star = int32(nv + numStars)
				numStars++
			}
		}
		ws.starOf = append(ws.starOf, star)
	}
	ws.pinOff = append(ws.pinOff, int32(len(ws.pins)))
	dim := nv + numStars

	// Clique and star springs, anchors and the regularization put the
	// same weights into both axes, so one matrix serves both; only B2B
	// weights differ per axis. Each builder call below that is not
	// axis-specific goes to by only when by is a second builder.
	ws.bx = resetBuilder(ws.bx, dim)
	bx, by := ws.bx, ws.bx
	if opt.NetModel == ModelB2B {
		ws.by = resetBuilder(ws.by, dim)
		by = ws.by
	}
	shared := bx == by
	ws.rhsX = growZeroed(ws.rhsX, dim)
	ws.rhsY = growZeroed(ws.rhsY, dim)
	rhsX, rhsY := ws.rhsX, ws.rhsY

	// addDiag adds w to variable i's diagonal on both axes.
	addDiag := func(i int, w float64) {
		bx.AddDiag(i, w)
		if !shared {
			by.AddDiag(i, w)
		}
	}
	// addSpring connects two pins (variable or fixed) with weight w.
	addSpring := func(a, b netPin, w float64) {
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			if a.varIdx == b.varIdx {
				return // two pins on the same cell: rigid, no term
			}
			bx.AddSym(int(a.varIdx), int(b.varIdx), w)
			if !shared {
				by.AddSym(int(a.varIdx), int(b.varIdx), w)
			}
			// Offset difference moves the equilibrium.
			dx := a.pos.X - b.pos.X
			dy := a.pos.Y - b.pos.Y
			rhsX[a.varIdx] -= w * dx
			rhsX[b.varIdx] += w * dx
			rhsY[a.varIdx] -= w * dy
			rhsY[b.varIdx] += w * dy
		case a.varIdx >= 0:
			addDiag(int(a.varIdx), w)
			rhsX[a.varIdx] += w * (b.pos.X - a.pos.X)
			rhsY[a.varIdx] += w * (b.pos.Y - a.pos.Y)
		case b.varIdx >= 0:
			addDiag(int(b.varIdx), w)
			rhsX[b.varIdx] += w * (a.pos.X - b.pos.X)
			rhsY[b.varIdx] += w * (a.pos.Y - b.pos.Y)
		}
	}

	// addSpringAxis is the single-axis variant used by the B2B model;
	// axis 0 = x, 1 = y.
	addSpringAxis := func(a, b netPin, w float64, axis int) {
		bld, rhs := bx, rhsX
		ca, cb := a.pos.X, b.pos.X
		if axis == 1 {
			bld, rhs = by, rhsY
			ca, cb = a.pos.Y, b.pos.Y
		}
		switch {
		case a.varIdx >= 0 && b.varIdx >= 0:
			if a.varIdx == b.varIdx {
				return
			}
			bld.AddSym(int(a.varIdx), int(b.varIdx), w)
			d := ca - cb
			rhs[a.varIdx] -= w * d
			rhs[b.varIdx] += w * d
		case a.varIdx >= 0:
			bld.AddDiag(int(a.varIdx), w)
			rhs[a.varIdx] += w * (cb - ca)
		case b.varIdx >= 0:
			bld.AddDiag(int(b.varIdx), w)
			rhs[b.varIdx] += w * (ca - cb)
		}
	}
	// b2bAxis adds the bound-to-bound springs of one net on one axis.
	b2bAxis := func(ps []netPin, netWeight float64, axis int) {
		p := len(ps)
		coord := func(i int) float64 {
			if axis == 1 {
				return ps[i].cur.Y
			}
			return ps[i].cur.X
		}
		lo, hi := 0, 0
		for i := 1; i < p; i++ {
			if coord(i) < coord(lo) {
				lo = i
			}
			if coord(i) > coord(hi) {
				hi = i
			}
		}
		if lo == hi {
			hi = (lo + 1) % p // coincident pins: pick any partner
		}
		scale := 2 * netWeight / float64(p-1)
		weight := func(i, j int) float64 {
			d := math.Abs(coord(i) - coord(j))
			if d < b2bMinDist {
				d = b2bMinDist
			}
			return scale / d
		}
		addSpringAxis(ps[lo], ps[hi], weight(lo, hi), axis)
		for i := 0; i < p; i++ {
			if i == lo || i == hi {
				continue
			}
			addSpringAxis(ps[i], ps[lo], weight(i, lo), axis)
			addSpringAxis(ps[i], ps[hi], weight(i, hi), axis)
		}
	}

	for k, ni := range ws.netIDs {
		ps := ws.pins[ws.pinOff[k]:ws.pinOff[k+1]]
		if len(ps) == 0 {
			continue // fewer than two pins: no spring terms
		}
		w := n.Nets[ni].Weight
		p := len(ps)
		if opt.NetModel == ModelB2B && p > 2 {
			b2bAxis(ps, w, 0)
			b2bAxis(ps, w, 1)
		} else if ws.starOf[k] < 0 {
			// Clique model with the standard 1/(p-1) scaling.
			cw := w / float64(p-1)
			for i := 0; i < p; i++ {
				for j := i + 1; j < p; j++ {
					addSpring(ps[i], ps[j], cw)
				}
			}
		} else {
			// Star model: every pin to the star node; weight p/(p-1)
			// makes 2-pin behavior consistent in expectation.
			sw := w * float64(p) / float64(p-1)
			star := netPin{varIdx: ws.starOf[k]}
			for i := 0; i < p; i++ {
				addSpring(ps[i], star, sw)
			}
		}
	}

	// Anchors.
	for _, a := range anchors {
		vi := varOf(a.Cell)
		if vi < 0 || a.Weight <= 0 {
			continue
		}
		addDiag(int(vi), a.Weight)
		rhsX[vi] += a.Weight * a.Target.X
		rhsY[vi] += a.Weight * a.Target.Y
	}

	// Regularization toward the chip center keeps disconnected cells and
	// star nodes well-defined.
	ctr := n.Area.Center()
	for i := 0; i < dim; i++ {
		addDiag(i, regularization)
		rhsX[i] += regularization * ctr.X
		rhsY[i] += regularization * ctr.Y
	}

	mx := bx.Build()
	my := mx
	if !shared {
		my = by.Build()
	}
	ws.x = grow(ws.x, dim)
	ws.y = grow(ws.y, dim)
	x, y := ws.x, ws.y
	for vi, id := range subset {
		x[vi], y[vi] = n.X[id], n.Y[id] // warm start
	}
	for s := nv; s < dim; s++ {
		x[s], y[s] = ctr.X, ctr.Y
	}
	// The fallback chain: with a degrade log armed, a CG solve that
	// exhausts its budget is retried once from its iterate with a 4x
	// budget (inside SolveCGPair); if that fails too, SolveSubset keeps
	// the warm start. A best-effort solve accepts the non-converged
	// iterate instead, and context errors pass straight through
	// (ErrNotConverged is a distinct sentinel, so a cancellation mid-solve
	// never retries).
	cg := sparse.CGOptions{Tol: opt.Tol, MaxIter: opt.MaxIter, Obs: opt.Obs, Ctx: opt.Ctx}
	retry := opt.Degrade != nil && !opt.BestEffort
	itx, ity, errX, errY := sparse.SolveCGPair(mx, my, x, y, rhsX, rhsY, cg, retry)
	degraded := false
	var degradeDetail string
	for _, ax := range [2]struct {
		name string
		err  error
	}{{"x", errX}, {"y", errY}} {
		switch {
		case ax.err == nil || (opt.BestEffort && errors.Is(ax.err, sparse.ErrNotConverged)):
		case retry && errors.Is(ax.err, sparse.ErrNotConverged):
			degraded = true
			degradeDetail = ax.err.Error()
		default:
			return fmt.Errorf("qp: %s solve: %w", ax.name, ax.err)
		}
	}
	opt.Stats.add(itx + ity)
	opt.Obs.Count("qp.solves", 1)
	if degraded {
		// Degraded-result contract: positions stay at the warm start (the
		// last anchor solution); the caller learns about it through the
		// degradation log, not an error.
		opt.Degrade.Add("qp.cg", "anchor-solution", degradeDetail)
		return nil
	}
	for vi, id := range subset {
		n.SetPos(id, n.Area.ClampPoint(geom.Point{X: x[vi], Y: y[vi]}))
	}
	return nil
}

// Netlength returns the quadratic objective value of the current placement
// (sum over net springs of w * squared distance, same models as Solve).
// Used by tests and convergence diagnostics.
func Netlength(n *netlist.Netlist) float64 {
	total := 0.0
	for ni := range n.Nets {
		net := &n.Nets[ni]
		p := len(net.Pins)
		if p < 2 {
			continue
		}
		if p <= cliqueThreshold {
			cw := net.Weight / float64(p-1)
			for i := 0; i < p; i++ {
				pi := n.PinPos(net.Pins[i])
				for j := i + 1; j < p; j++ {
					pj := n.PinPos(net.Pins[j])
					total += cw * (sq(pi.X-pj.X) + sq(pi.Y-pj.Y))
				}
			}
		} else {
			// Star at the centroid (the optimal star position).
			var cx, cy float64
			for i := 0; i < p; i++ {
				pos := n.PinPos(net.Pins[i])
				cx += pos.X
				cy += pos.Y
			}
			cx /= float64(p)
			cy /= float64(p)
			sw := net.Weight * float64(p) / float64(p-1)
			for i := 0; i < p; i++ {
				pos := n.PinPos(net.Pins[i])
				total += sw * (sq(pos.X-cx) + sq(pos.Y-cy))
			}
		}
	}
	return total
}

func sq(v float64) float64 { return v * v }
