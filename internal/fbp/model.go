// Package fbp implements the paper's core contribution (§IV): flow-based
// partitioning. A global MinCostFlow model — whose size is linear in the
// number of windows and regions, independent of the cell count — computes
// movement directions and amounts; local realization steps (a local QP
// over a window and its flow targets, then one transportation per
// neighbor pair, processed in topological order of the flow-carrying
// external edges) turn the flow into an actual cell-to-region
// partitioning. The partitioning is feasible for any initial placement
// whenever a fractional placement with movebounds exists (Theorem 3).
// PartitionLocal is the recursive baseline the paper improves upon: the
// same per-window transportation, without the flow.
package fbp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
	"fbplace/internal/transport"
)

// Directions of the four transit nodes per window and movebound class.
const (
	DirN = iota
	DirE
	DirS
	DirW
	numDirs
)

// DirName returns the compass name of a transit direction.
func DirName(d int) string { return [...]string{"N", "E", "S", "W"}[d] }

// Config tunes the partitioning.
type Config struct {
	// LocalQP enables the connectivity-aware local QP before each
	// realization unit's transportations (paper §IV.B). Default true via
	// DefaultConfig.
	LocalQP bool
	// Workers bounds the parallel realization workers; 0 means
	// GOMAXPROCS.
	Workers int
	// Obs, when non-nil, records phase spans (fbp.build / fbp.solve /
	// fbp.realize with per-wave children) and solver counters.
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels the partitioning: it is threaded into the
	// MCF solve, the realization waves and their local QP and
	// transportation solves. A canceled or expired context aborts within
	// one wave and propagates the context's error.
	Ctx context.Context
	// Degrade, when non-nil, records the partitioning's solver fallbacks:
	// NS stall -> SSP in the global MCF and condensed transport ->
	// reference engine in realization. Both fallbacks run whether or not a
	// log is attached; the log only makes them visible. The
	// realization-local QPs are best-effort (a CG solve that runs out of
	// iterations keeps its iterate), so they have no fallback to record.
	Degrade *degrade.Log
	// Check, when non-nil, certifies intermediate solver results: the MCF
	// solution right after Solve and every realization transportation
	// right after its engine returns. Failures propagate as the checker's
	// error (internal/certify returns *certify.Error), which the placer
	// answers with its one whole-run re-run. The interface lives here
	// rather than importing internal/certify so the dependency keeps
	// pointing from the certifier at the solvers, never back.
	Check Checker
	// System, when non-nil, is the placement's held spring system of the
	// partitioned netlist (qp.NewSystem, clique/star): every realization-
	// local QP solves a slice of it (qp.System.SolveSlice), and the
	// workers read it concurrently without changing it. When nil, a
	// realization with LocalQP assembles one for itself. Partition,
	// PartitionLocal and Realize refuse a system of another netlist.
	System *qp.System
}

// Checker certifies intermediate solver results (implemented by
// internal/certify.Checker). Implementations must be safe for concurrent
// use: realization workers certify transportations in parallel.
type Checker interface {
	// Flow certifies a solved min-cost-flow instance (dual feasibility,
	// complementary slackness, conservation).
	Flow(g *flow.MinCostFlow) error
	// Transport certifies a transportation solution against its instance
	// (row conservation, capacity feasibility, admissibility).
	Transport(p *transport.Problem, sol *transport.Solution) error
}

// DefaultConfig returns the configuration used by the placer.
func DefaultConfig() Config {
	return Config{LocalQP: true}
}

// Stats reports instance sizes and phase runtimes (paper Table I).
type Stats struct {
	NumNodes     int
	NumArcs      int
	NumWindows   int
	NumRegions   int
	NumExternals int // flow-carrying external edges
	BuildTime    time.Duration
	SolveTime    time.Duration
	RealizeTime  time.Duration
	// Waves is the number of parallel realization waves executed.
	Waves int
	// NSPivots is the network-simplex pivot count of the MCF solve.
	NSPivots int
	// LocalQPSolves and LocalCGIters aggregate the realization-local QP
	// effort (total CG iterations over both axes).
	LocalQPSolves int64
	LocalCGIters  int64
	// CollapseShare is the share of movable area the level started with
	// in windows holding more than twice the mean window area (see
	// collapseShare).
	CollapseShare float64
}

// External is one pair of opposite zero-cost arcs between facing transit
// nodes of adjacent windows (the E^ext of §IV.A). After Solve, Flow holds
// the net flow From -> To of the flow-carrying direction.
type External struct {
	Class    int
	From, To int // window indices
	FromDir  int // direction of the transit node in From
	ToDir    int // direction of the transit node in To
	arcFwd   flow.ArcID
	arcBwd   flow.ArcID
	Flow     float64
}

// Model is the assembled MinCostFlow instance together with the node maps
// needed to interpret the solution.
type Model struct {
	N       *netlist.Netlist
	WR      *grid.WindowRegions
	Classes int // number of movebounds + 1 (unbounded)

	// Obs records spans and counters when non-nil (set by Partition from
	// Config.Obs; callers driving BuildModel/Solve/Realize directly may
	// set it themselves).
	Obs *obs.Recorder
	// Degrade, when non-nil, records the NS-stall -> SSP fallback of Solve
	// (set by Partition from Config.Degrade).
	Degrade *degrade.Log

	G *flow.MinCostFlow
	// cellGroupNode[class*W + w] = node id or -1.
	cellGroupNode []int32
	// transitNode[(class*W + w)*4 + dir] = node id or -1.
	transitNode []int32
	// regionNode[w][k] = node id of window-region k of window w.
	regionNode [][]int32
	// groupSupply[class*W + w] = total cell area of the group.
	groupSupply []float64
	// classWindows[class] = half-open window coordinate range (ix0, iy0,
	// ix1, iy1) where the class has nodes.
	classWindows [][4]int

	Externals []External
	Stats     Stats
}

// classOf maps a cell's movebound to its class index (movebounds first,
// unbounded last).
func classOf(mb, numMB int) int {
	if mb == netlist.NoMovebound {
		return numMB
	}
	return mb
}

// TransitPos returns the embedding of transit node dir of window w: the
// middle of the corresponding window boundary.
func TransitPos(g *grid.Grid, w, dir int) geom.Point {
	r := g.WindowRect(w)
	c := r.Center()
	switch dir {
	case DirN:
		return geom.Point{X: c.X, Y: r.Yhi}
	case DirE:
		return geom.Point{X: r.Xhi, Y: c.Y}
	case DirS:
		return geom.Point{X: c.X, Y: r.Ylo}
	default:
		return geom.Point{X: r.Xlo, Y: c.Y}
	}
}

// BuildModel assembles the MinCostFlow instance of §IV.A for the given
// cell-to-window assignment (from a previous QP or partitioning).
// assign[i] is the window of movable cell i (-1 for fixed cells).
func BuildModel(n *netlist.Netlist, wr *grid.WindowRegions, assign []int) *Model {
	start := time.Now() //fbpvet:allow timing feeds Stats.BuildTime only, never positions
	g := wr.Grid
	W := g.NumWindows()
	numMB := len(wr.Decomp.Movebounds)
	classes := numMB + 1

	m := &Model{
		N:             n,
		WR:            wr,
		Classes:       classes,
		G:             flow.NewMinCostFlow(0),
		cellGroupNode: make([]int32, classes*W),
		transitNode:   make([]int32, classes*W*numDirs),
		regionNode:    make([][]int32, W),
		groupSupply:   make([]float64, classes*W),
		classWindows:  make([][4]int, classes),
	}
	for i := range m.cellGroupNode {
		m.cellGroupNode[i] = -1
	}
	for i := range m.transitNode {
		m.transitNode[i] = -1
	}

	// Cell group supplies and centers of gravity.
	cogX := make([]float64, classes*W)
	cogY := make([]float64, classes*W)
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Fixed || assign[i] < 0 {
			continue
		}
		cls := classOf(c.Movebound, numMB)
		key := cls*W + assign[i]
		s := c.Size()
		m.groupSupply[key] += s
		cogX[key] += s * n.X[i]
		cogY[key] += s * n.Y[i]
	}

	// Window coordinate range per class: movebound bbox union windows
	// holding its cells (cells may start outside the bbox); unbounded
	// class spans the whole grid.
	for cls := 0; cls < classes; cls++ {
		if cls == numMB {
			m.classWindows[cls] = [4]int{0, 0, g.Nx - 1, g.Ny - 1}
			continue
		}
		bb := wr.Decomp.Movebounds[cls].Area.BBox()
		ix0, iy0 := g.Locate(geom.Point{X: bb.Xlo + 1e-12, Y: bb.Ylo + 1e-12})
		ix1, iy1 := g.Locate(geom.Point{X: bb.Xhi - 1e-12, Y: bb.Yhi - 1e-12})
		for w := 0; w < W; w++ {
			if m.groupSupply[cls*W+w] > 0 {
				x, y := g.Coords(w)
				if x < ix0 {
					ix0 = x
				}
				if x > ix1 {
					ix1 = x
				}
				if y < iy0 {
					iy0 = y
				}
				if y > iy1 {
					iy1 = y
				}
			}
		}
		m.classWindows[cls] = [4]int{ix0, iy0, ix1, iy1}
	}

	// Region nodes (shared by all classes) with demand -capacity.
	for w := 0; w < W; w++ {
		regs := wr.PerWin[w]
		m.regionNode[w] = make([]int32, len(regs))
		for k := range regs {
			node := m.G.AddNode()
			m.regionNode[w][k] = int32(node)
			m.G.SetSupply(node, -regs[k].Capacity)
		}
	}

	// Per class and window: cell group node (if cells present) and
	// transit nodes (within the class window range), plus internal edges.
	for cls := 0; cls < classes; cls++ {
		r := m.classWindows[cls]
		for iy := r[1]; iy <= r[3]; iy++ {
			for ix := r[0]; ix <= r[2]; ix++ {
				w := g.Index(ix, iy)
				// Transit nodes.
				for dir := 0; dir < numDirs; dir++ {
					m.transitNode[(cls*W+w)*numDirs+dir] = int32(m.G.AddNode())
				}
				// Cell group node where supply exists.
				key := cls*W + w
				if m.groupSupply[key] > 0 {
					node := m.G.AddNode()
					m.cellGroupNode[key] = int32(node)
					m.G.SetSupply(node, m.groupSupply[key])
				}
			}
		}
	}
	// Edges. Costs are L1 distances between node embeddings.
	mb := func(cls int) int {
		if cls == numMB {
			return netlist.NoMovebound
		}
		return cls
	}
	for cls := 0; cls < classes; cls++ {
		r := m.classWindows[cls]
		for iy := r[1]; iy <= r[3]; iy++ {
			for ix := r[0]; ix <= r[2]; ix++ {
				w := g.Index(ix, iy)
				key := cls*W + w
				groupNode := m.cellGroupNode[key]
				var groupPos geom.Point
				if groupNode >= 0 {
					s := m.groupSupply[key]
					groupPos = geom.Point{X: cogX[key] / s, Y: cogY[key] / s}
				}
				transit := func(dir int) int32 { return m.transitNode[key*numDirs+dir] }
				// E^tt: transit <-> transit within the window.
				for d1 := 0; d1 < numDirs; d1++ {
					p1 := TransitPos(g, w, d1)
					for d2 := 0; d2 < numDirs; d2++ {
						if d1 == d2 {
							continue
						}
						m.G.AddArc(int(transit(d1)), int(transit(d2)), flow.Inf, p1.DistL1(TransitPos(g, w, d2)))
					}
				}
				// E^tr and E^cr, E^ct.
				for k := range wr.PerWin[w] {
					reg := &wr.PerWin[w][k]
					if !wr.Decomp.Admissible(mb(cls), reg.Region) {
						continue
					}
					rn := int(m.regionNode[w][k])
					for dir := 0; dir < numDirs; dir++ {
						m.G.AddArc(int(transit(dir)), rn, flow.Inf, TransitPos(g, w, dir).DistL1(reg.Center))
					}
					if groupNode >= 0 {
						m.G.AddArc(int(groupNode), rn, flow.Inf, groupPos.DistL1(reg.Center))
					}
				}
				if groupNode >= 0 {
					for dir := 0; dir < numDirs; dir++ {
						m.G.AddArc(int(groupNode), int(transit(dir)), flow.Inf, groupPos.DistL1(TransitPos(g, w, dir)))
					}
				}
				// E^ext: east and north neighbors (both directions each).
				if ix+1 <= r[2] {
					m.addExternal(cls, w, DirE, g.Index(ix+1, iy), DirW)
				}
				if iy+1 <= r[3] {
					m.addExternal(cls, w, DirN, g.Index(ix, iy+1), DirS)
				}
			}
		}
	}
	m.Stats.NumNodes = m.G.NumNodes()
	m.Stats.NumArcs = m.G.NumArcs()
	m.Stats.NumWindows = W
	m.Stats.NumRegions = wr.NumRegions()
	m.Stats.BuildTime = time.Since(start) //fbpvet:allow reporting-only duration
	return m
}

// addExternal adds the arc pair between facing transit nodes. The paper
// prices external edges at zero; we add a tiny epsilon (0.1% of the
// window perimeter) purely as a tie-breaker: the network simplex would
// otherwise be free to pick optima that wander through long chains of the
// zero-cost transit mesh, and the realization would physically ship cells
// along those detours.
func (m *Model) addExternal(cls, from, fromDir, to, toDir int) {
	W := m.WR.Grid.NumWindows()
	a := m.transitNode[(cls*W+from)*numDirs+fromDir]
	b := m.transitNode[(cls*W+to)*numDirs+toDir]
	if a < 0 || b < 0 {
		return
	}
	wrect := m.WR.Grid.WindowRect(from)
	eps := 1e-3 * (wrect.Width() + wrect.Height())
	fwd := m.G.AddArc(int(a), int(b), flow.Inf, eps)
	bwd := m.G.AddArc(int(b), int(a), flow.Inf, eps)
	m.Externals = append(m.Externals, External{
		Class: cls, From: from, To: to, FromDir: fromDir, ToDir: toDir,
		arcFwd: fwd, arcBwd: bwd,
	})
}

// ErrInfeasible wraps flow infeasibility with the paper's interpretation.
type ErrInfeasible struct {
	Unrouted float64
}

func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("fbp: no fractional placement with movebounds exists (%g cell area cannot be absorbed)", e.Unrouted)
}

// sspFault fails the global MCF's successive-shortest-path fallback at
// entry. Armed together with flow.ns.stall it proves that when the whole
// solver fallback chain is exhausted, the pipeline surfaces a structured
// error instead of a silently wrong placement.
var sspFault = faultsim.Register("flow.ssp.fail",
	"the global MCF's successive-shortest-path fallback fails at entry")

// Solve runs the MinCostFlow and populates the external edge flows. Per
// Theorem 3 it returns *ErrInfeasible exactly when no fractional placement
// with movebounds exists for the given capacities.
func (m *Model) Solve() error {
	sp := m.Obs.StartSpan("fbp.solve")
	defer sp.End()
	start := time.Now() //fbpvet:allow timing feeds Stats.SolveTime only, never positions
	// Network simplex, as in the paper ("computed by a (sequential)
	// NetworkSimplex algorithm"): the zero-cost transit mesh makes
	// augmenting-path solvers churn, while tree pivots handle it well.
	m.G.Obs = m.Obs
	_, err := m.G.SolveNS()
	if err != nil {
		// Fallback chain: a stalled simplex says nothing about
		// feasibility, so the unconditionally terminating successive
		// shortest path solver acts as the oracle. Infeasibility and
		// cancellation are NOT stalls and propagate directly.
		var stalled *flow.ErrStalled
		if errors.As(err, &stalled) {
			m.Degrade.Add("flow.ns", "ssp", err.Error())
			if err = sspFault.Check(); err != nil {
				err = fmt.Errorf("flow: ssp solve: %w", err)
			} else {
				_, err = m.G.Solve()
			}
		}
	}
	m.Stats.SolveTime = time.Since(start) //fbpvet:allow reporting-only duration
	m.Stats.NSPivots = m.G.Pivots
	sp.Attr("nodes", float64(m.Stats.NumNodes))
	sp.Attr("arcs", float64(m.Stats.NumArcs))
	sp.Attr("pivots", float64(m.G.Pivots))
	sp.Attr("degenerate", float64(m.G.Degenerate))
	sp.Attr("priced", float64(m.G.Priced))
	if err != nil {
		if inf, ok := err.(*flow.ErrInfeasible); ok {
			return &ErrInfeasible{Unrouted: inf.Unrouted}
		}
		return err
	}
	// Net flow per external pair; opposite flows cancel (an optimal
	// solution never carries both, but rounding may leave dust).
	count := 0
	for i := range m.Externals {
		e := &m.Externals[i]
		net := m.G.Flow(e.arcFwd) - m.G.Flow(e.arcBwd)
		if net < 0 {
			// Flow runs To -> From; normalize the record.
			e.From, e.To = e.To, e.From
			e.FromDir, e.ToDir = e.ToDir, e.FromDir
			net = -net
		}
		e.Flow = net
		if net > flow.Eps {
			count++
		}
	}
	m.Stats.NumExternals = count
	return nil
}
