// Package qp implements quadratic netlength minimization (paper §III),
// the analytic engine of the placer: nets become springs (clique model for
// small nets, star model for large ones), fixed pins and pads enter the
// right-hand side, and optional anchors pull cells toward targets (window
// centers during partitioning, spread positions in the RQL baseline).
// The x and y systems are independent; under the clique/star model they
// share one matrix, and both are solved with preconditioned CG in one
// lockstep loop on the calling goroutine (sparse.SolveCGPair).
//
// A System holds the assembled springs of a set of variable cells, so the
// placer assembles its netlist once and solves it unanchored and then
// anchored after every level. SolveSubset supports the local QP of the
// realization step (§IV.B): only the given cells are variables,
// everything else is fixed at its current position.
package qp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
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
	// variable/net marks, pin buffers, matrix builders, rhs and CG
	// vectors) so steady-state SolveSubset calls allocate O(block), not
	// O(netlist), and holds the System that NewSystem assembles.
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
// writes the optimal positions into the netlist: it assembles the system
// of all movable cells once and solves it once (NewSystem, System.Solve).
func Solve(n *netlist.Netlist, anchors []Anchor, opt Options) error {
	s, err := NewSystem(n, opt)
	if err != nil {
		return err
	}
	return s.Solve(anchors, opt)
}

// netPin is one pin of a net as seen by the local system assembly.
type netPin struct {
	varIdx int32      // variable index or -1
	pos    geom.Point // absolute position if fixed, offset if variable
	cur    geom.Point // current absolute position (B2B weights/bounds)
}

// System is the assembled quadratic system of one set of variable cells:
// the star nodes of their big nets, the net springs (the off-diagonal
// matrix, one per axis under B2B, and the spring diagonal) and the
// right-hand sides of the pin offsets and the fixed pins. A solve adds the anchors and the
// centering spring to copies of the diagonal and the right-hand sides, so
// one system serves any number of solves while the fixed cells and pads
// stay put. Clique/star springs do not depend on the positions of the
// variable cells; B2B weights are those of the positions at assembly.
//
// A system lives in its workspace's buffers and stays valid until the
// workspace assembles the next one.
type System struct {
	n      *netlist.Netlist
	subset []netlist.CellID
	ws     *Workspace
	// nv variables are the subset cells, dim-nv are star nodes.
	nv, dim int
	// mx and my (one matrix unless B2B) hold the springs; their Diag is
	// the spring diagonal.
	mx, my     *sparse.CSR
	rhsX, rhsY []float64
}

// NewSystem assembles the system of all movable cells of n in
// opt.Workspace (a fresh workspace when nil) for the net model
// opt.NetModel.
func NewSystem(n *netlist.Netlist, opt Options) (*System, error) {
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	return ws.assemble(n, n.MovableIDs(), opt)
}

// SolveSubset minimizes the quadratic netlength over the given cells only;
// all other cells are treated as fixed at their current positions.
// Anchors referencing cells outside the subset are ignored.
func SolveSubset(n *netlist.Netlist, subset []netlist.CellID, anchors []Anchor, opt Options) error {
	if len(subset) == 0 {
		return nil
	}
	ws := opt.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}
	s, err := ws.assemble(n, subset, opt)
	if err != nil {
		return err
	}
	return s.Solve(anchors, opt)
}

// assemble builds the spring system of subset in ws; it is the one
// assembly of every solve.
//
// The system is assembled by walking only the nets incident to the subset
// (via the netlist's cell -> net index), in ascending net order — the same
// nets, in the same order, that a full netlist scan would emit, so results
// are bit-identical to one while the cost is proportional to the block,
// not the chip. The obs counter "qp.netsVisited" records the incident-net
// count per assembly.
func (ws *Workspace) assemble(n *netlist.Netlist, subset []netlist.CellID, opt Options) (*System, error) {
	if ws.uses > 0 {
		opt.Obs.Count("qp.wsReuse", 1)
	}
	ws.begin(n.NumCells(), n.NumNets())
	epoch := ws.epoch
	// Variable index per subset cell; epoch stamps replace the O(NumCells)
	// "-1" fill a dense varOf array would need per call.
	for vi, id := range subset {
		if n.Cells[id].Fixed {
			return nil, fmt.Errorf("qp: subset contains fixed cell %d (%s)", id, n.Cells[id].Name)
		}
		ws.varIdx[id] = int32(vi)
		ws.varEpoch[id] = epoch
	}
	nv := len(subset)
	varOf := ws.varOf

	// Gather the nets incident to the subset, deduplicated by epoch stamp
	// and sorted ascending: ascending net order reproduces the emission
	// (and thus float summation) order of a full netlist scan bit-for-bit.
	idx := n.NetIndex()
	nets := ws.netIDs[:0]
	numPins := 0
	for _, id := range subset {
		for _, ni := range idx.Nets(id) {
			if ws.netEpoch[ni] != epoch {
				ws.netEpoch[ni] = epoch
				nets = append(nets, int32(ni))
				numPins += len(n.Nets[ni].Pins)
			}
		}
	}
	slices.Sort(nets)
	ws.netIDs = nets
	opt.Obs.Count("qp.netsVisited", float64(len(nets)))

	// Collect pins per incident net and assign star variables: nets with
	// > cliqueThreshold pins get a star node. Every gathered net has at
	// least one variable pin by construction of the index, so the old
	// per-net hasVar scan is gone entirely. The buffers are sized once.
	ws.pins = slices.Grow(ws.pins[:0], numPins)
	ws.pinOff = slices.Grow(ws.pinOff[:0], len(nets)+1)
	ws.starOf = slices.Grow(ws.starOf[:0], len(nets))
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

	// Clique and star springs put the same weights into both axes, so one
	// matrix serves both; only B2B weights differ per axis. Each builder
	// call below that is not axis-specific goes to by only when by is a
	// second builder.
	ws.bx = resetBuilder(ws.bx, dim)
	bx, by := ws.bx, ws.bx
	if opt.NetModel == ModelB2B {
		ws.by = resetBuilder(ws.by, dim)
		by = ws.by
	}
	shared := bx == by
	ws.springX = growZeroed(ws.springX, dim)
	ws.springY = growZeroed(ws.springY, dim)
	rhsX, rhsY := ws.springX, ws.springY

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
			bx.AddDiag(int(a.varIdx), w)
			if !shared {
				by.AddDiag(int(a.varIdx), w)
			}
			rhsX[a.varIdx] += w * (b.pos.X - a.pos.X)
			rhsY[a.varIdx] += w * (b.pos.Y - a.pos.Y)
		case b.varIdx >= 0:
			bx.AddDiag(int(b.varIdx), w)
			if !shared {
				by.AddDiag(int(b.varIdx), w)
			}
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

	ws.sys = System{
		n: n, subset: subset, ws: ws,
		nv: nv, dim: dim,
		mx: bx.Build(), rhsX: rhsX, rhsY: rhsY,
	}
	ws.sys.my = ws.sys.mx
	if !shared {
		ws.sys.my = by.Build()
	}
	return &ws.sys, nil
}

// Solve minimizes the quadratic netlength over the system's variable
// cells, with the anchors (those on cells outside the system are ignored)
// and a tiny centering spring on every variable added to copies of the
// spring diagonal and right-hand sides, in that order, and writes the
// clamped solution into the netlist. The off-diagonal springs are shared
// by every solve of the system. Of opt, the solve settings apply; the net
// model, the read snapshot and the workspace are those of the assembly.
func (s *System) Solve(anchors []Anchor, opt Options) error {
	opt.fill()
	if s.nv == 0 {
		return nil
	}
	n, ws, dim := s.n, s.ws, s.dim
	ws.diagX = append(ws.diagX[:0], s.mx.Diag...)
	ws.matX = *s.mx
	ws.matX.Diag = ws.diagX
	mx, my := &ws.matX, &ws.matX
	diagX, diagY := ws.diagX, ws.diagX
	shared := s.my == s.mx
	if !shared {
		ws.diagY = append(ws.diagY[:0], s.my.Diag...)
		ws.matY = *s.my
		ws.matY.Diag = ws.diagY
		my, diagY = &ws.matY, ws.diagY
	}
	ws.rhsX = append(ws.rhsX[:0], s.rhsX...)
	ws.rhsY = append(ws.rhsY[:0], s.rhsY...)
	rhsX, rhsY := ws.rhsX, ws.rhsY
	// addDiag adds w to variable i's diagonal on both axes.
	addDiag := func(i int, w float64) {
		diagX[i] += w
		if !shared {
			diagY[i] += w
		}
	}

	// Anchors.
	for _, a := range anchors {
		vi := ws.varOf(a.Cell)
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

	ws.x = grow(ws.x, dim)
	ws.y = grow(ws.y, dim)
	x, y := ws.x, ws.y
	for vi, id := range s.subset {
		x[vi], y[vi] = n.X[id], n.Y[id] // warm start
	}
	for i := s.nv; i < dim; i++ {
		x[i], y[i] = ctr.X, ctr.Y
	}
	// The fallback chain: with a degrade log armed, a CG solve that
	// exhausts its budget is retried once from its iterate with a 4x
	// budget (inside SolveCGPair); if that fails too, the solve keeps
	// the warm start. A best-effort solve accepts the non-converged
	// iterate instead, and context errors pass straight through
	// (ErrNotConverged is a distinct sentinel, so a cancellation mid-solve
	// never retries).
	cg := sparse.CGOptions{Tol: opt.Tol, MaxIter: opt.MaxIter, Obs: opt.Obs, Ctx: opt.Ctx}
	retry := opt.Degrade != nil && !opt.BestEffort
	itx, ity, errX, errY := sparse.SolveCGPair(&ws.cg, mx, my, x, y, rhsX, rhsY, cg, retry)
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
	for vi, id := range s.subset {
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
