package fbp

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
	"fbplace/internal/transport"
)

// Injection points of the realization phase: unitFault fails (or panics)
// a wave unit, finalFault a final-pass window. Both exercise the worker
// panic-recovery boundary and the deterministic error aggregation.
var (
	unitFault = faultsim.Register("fbp.realize.unit",
		"a realization wave unit fails (or panics) at entry")
	finalFault = faultsim.Register("fbp.final.window",
		"a final-pass window transportation fails (or panics) at entry")
)

// UnitError attributes a realization failure to the window it occurred in
// and the phase that was running. Worker panics (injected or organic) are
// recovered at the goroutine boundary and converted into a UnitError
// carrying the panic value and stack, so a single bad unit fails the
// partitioning with a structured error instead of crashing the process.
type UnitError struct {
	// Window is the grid window index of the failing unit.
	Window int
	// Phase is "realize" (wave unit) or "final" (final-pass window).
	Phase string
	// Err is the underlying failure; for recovered panics it wraps the
	// panic value.
	Err error
	// Stack is the goroutine stack at recovery time (nil unless the unit
	// panicked).
	Stack []byte
}

func (e *UnitError) Error() string {
	return fmt.Sprintf("fbp: %s of window %d: %v", e.Phase, e.Window, e.Err)
}

func (e *UnitError) Unwrap() error { return e.Err }

// wrapUnitErr attaches window/phase identity to a unit failure. Context
// errors and already-attributed errors pass through unchanged, so
// cancellation stays recognizable with errors.Is.
func wrapUnitErr(w int, phase string, err error) error {
	if err == nil {
		return nil
	}
	var ue *UnitError
	if errors.As(err, &ue) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return &UnitError{Window: w, Phase: phase, Err: err}
}

// RegionRef identifies a window-region: window index and position within
// the window's region list.
type RegionRef struct {
	Window int32
	Index  int32
}

// Result of a partitioning run.
type Result struct {
	// CellRegion maps every cell to its assigned window-region;
	// {-1, -1} for fixed cells.
	CellRegion []RegionRef
	// Stats carries model sizes and phase runtimes.
	Stats Stats
	// RoundingOverflow is the residual overflow: the total cell area
	// exceeding region capacities after capacity-aware rounding and
	// repairOverflow, plus the area of unassigned cells (diagnostics;
	// absorbed by later levels or legalization).
	RoundingOverflow float64
}

// realizer carries the mutable state of the realization phase.
type realizer struct {
	m   *Model
	n   *netlist.Netlist
	cfg Config

	// parked marks movable cells waiting at a transit sink.
	parked []bool
	// assignment after the most recent transportation covering the cell.
	cellRegion []RegionRef
	// cellsIn[w] lists movable cells currently in window w.
	cellsIn [][]int32
	// unrealizedOut[(class*W+w)*4+dir] = remaining outgoing external flow.
	unrealizedOut []float64
	// outgoing[class*W+w] lists indices into m.Externals with the given
	// class and From == w, flow > 0. The topological order runs over
	// these (class, window) units: each class's external subgraph is
	// acyclic (an optimal MCF cannot afford the positive-cost transit
	// edges a directed cycle would need), and different classes are
	// disjoint subgraphs, so the union is acyclic too. Collapsing to
	// plain windows would create artificial cycles whenever two classes
	// ship in opposite directions between the same window pair.
	outgoing [][]int32

	waves int

	// scratch[k] holds the reusable buffers of worker k of runUnits. An
	// entry stays nil until its worker first runs, so a run never pays for
	// workers it does not use.
	scratch []*workerScratch
	// snapX, snapY are the wave-start position snapshots, reused across
	// waves (waves run strictly one after another).
	snapX, snapY []float64

	// Observability: rec records wave spans and counters; qpStats
	// aggregates the local QP effort (atomically, workers share it);
	// busyNS accumulates per-unit busy time for worker occupancy.
	rec     *obs.Recorder
	qpStats qp.SolveStats
	busyNS  int64
}

// workerScratch bundles the reusable buffers of one realization worker:
// the local QP workspace, the footprint and target buffers of realizeUnit
// and the step every transportation of the worker is built in. Worker k
// of runUnits owns r.scratch[k] for the whole run and uses it for every
// unit it takes, so steady-state realization allocates only what the
// solvers return. Reuse never changes results: all buffers are fully
// rewritten per unit.
type workerScratch struct {
	qp      *qp.Workspace
	subset  []netlist.CellID
	targets []pairTarget
	step    step
}

func newWorkerScratch() *workerScratch {
	sc := &workerScratch{qp: qp.NewWorkspace()}
	sc.step.prob.Workspace = transport.NewWorkspace()
	return sc
}

// pairTarget is one flow target of a unit: the target window and the
// unit's external edges into it.
type pairTarget struct {
	to    int
	edges []int32
}

// unit is a realization step: one window together with the classes whose
// outgoing external edges are realized in this step. Multiple classes of
// the same window at the same topological level are merged into one step —
// each pair transportation repartitions all cells of its two windows
// anyway, so realizing the classes together saves a local QP and one
// transportation per target and class.
type unit struct {
	window  int
	classes []int
}

// Partition runs the full flow-based partitioning: model build, MCF solve
// and realization. It assigns every movable cell to a window-region,
// updates cell positions to lie inside their regions, and returns the
// assignment. The netlist's positions are used as the starting state (the
// "any given placement" of the paper).
//
// Feasibility (sketch; the paper's per-edge induction [22], ordered
// window by window): for every window w and movebound class c,
//
//	area_c(w) <= absorbed_c(w) + unrealizedOut_c(w),
//
// where absorbed_c(w) is the class's share of w's region capacities in
// the MCF solution and unrealizedOut_c(w) the flow on c's not yet
// realized outgoing external edges. It holds initially by flow
// conservation (supply + in = absorbed + out at each cell-group/transit
// subgraph). Units run in topological order of the flow-carrying external
// edges, so all of a unit's incoming edges are realized before its
// outgoing ones, and after the last unit unrealizedOut == 0 everywhere.
// The realization steps do not preserve the inequality exactly: a pair
// step (see realizeUnit) offers both windows' full region capacity to all
// cells of the pair, so it can fill capacity the MCF reserved for inflow
// from a third window before that inflow is realized, and majority
// rounding adds up to about a cell per sink. Every transportation is
// elastic, so such a step still solves, taking the least overflow it can;
// the capacity-aware rounding bounds the rounding share, repairOverflow
// removes what the final pass leaves, and Result.RoundingOverflow reports
// it.
func Partition(n *netlist.Netlist, wr *grid.WindowRegions, cfg Config) (*Result, error) {
	bsp := cfg.Obs.StartSpan("fbp.build")
	assign := wr.Grid.AssignCells(n)
	share := collapseShare(n, assign, wr.Grid.NumWindows())
	bsp.Attr("collapse_share", share)
	cfg.Obs.Gauge("fbp.collapse_share", share)
	model := BuildModel(n, wr, assign)
	model.Obs = cfg.Obs
	model.Degrade = cfg.Degrade
	model.G.Ctx = cfg.Ctx
	bsp.End()
	if err := model.Solve(); err != nil {
		return nil, err
	}
	if cfg.Check != nil {
		// Certify the MCF solution before realizing it: a wrong flow would
		// otherwise be baked into cell movements before anything notices.
		if err := cfg.Check.Flow(model.G); err != nil {
			return nil, err
		}
	}
	return Realize(model, cfg)
}

// collapseShare is the share of movable area sitting in windows that hold
// more than twice the mean window area: 0 for an even spread, near 1 when
// the level starts from a placement collapsed into a few windows. assign
// maps cells to windows (-1 for fixed cells), as Grid.AssignCells does.
func collapseShare(n *netlist.Netlist, assign []int, windows int) float64 {
	area := make([]float64, windows)
	total := 0.0
	for i, w := range assign {
		if w >= 0 {
			area[w] += n.Cells[i].Size()
			total += n.Cells[i].Size()
		}
	}
	if total == 0 {
		return 0
	}
	heavy := 0.0
	for _, a := range area {
		if a > 2*total/float64(windows) {
			heavy += a
		}
	}
	return heavy / total
}

// Realize turns a solved model into a cell-to-region partitioning.
func Realize(m *Model, cfg Config) (*Result, error) {
	rec := cfg.Obs
	if rec == nil {
		rec = m.Obs
	}
	rsp := rec.StartSpan("fbp.realize")
	defer rsp.End()
	start := time.Now() //fbpvet:allow timing feeds Stats.RealizeTime only, never positions
	r := newRealizer(m, cfg, rec)
	if err := r.realizeWaves(); err != nil {
		return nil, err
	}
	// Final internal partitioning: every window maps its cells to its
	// regions (no transit sinks remain).
	fsp := rec.StartSpan("fbp.final")
	if _, err := r.finalPass(); err != nil {
		fsp.End()
		return nil, err
	}
	fsp.End()
	// Repair the residual overflow left by majority rounding across
	// multi-hop realizations: move the smallest set of cells from
	// overfull regions to the nearest admissible regions with headroom.
	psp := rec.StartSpan("fbp.repair")
	residual := r.repairOverflow()
	psp.End()
	m.Stats.RealizeTime = time.Since(start) //fbpvet:allow reporting-only duration
	m.Stats.Waves = r.waves
	m.Stats.LocalQPSolves, m.Stats.LocalCGIters = r.qpStats.Snapshot()
	rec.Count("fbp.waves", float64(r.waves))
	return &Result{CellRegion: r.cellRegion, Stats: m.Stats, RoundingOverflow: residual}, nil
}

// PartitionLocal is the recursive partitioning baseline the paper
// improves upon (§IV): every window partitions its own cells among its
// own regions, with no global flow. It is the final pass of a realizer
// over a flow-less model, after an escape pass for the cells it cannot
// place at all: a cell whose movebound covers no region of its window is
// teleported to the nearest admissible region anywhere on the chip — the
// inherent blind spot of recursive approaches. Every teleported cell
// counts one relaxation, and so does every window whose cells do not fit
// its regions, which takes the least overflow its elastic transportation
// allows. cfg's Workers, Obs, Ctx and Degrade apply as in Partition.
func PartitionLocal(n *netlist.Netlist, wr *grid.WindowRegions, cfg Config) (relaxations int, err error) {
	relaxations = escapeLocal(n, wr)
	r := newRealizer(&Model{N: n, WR: wr}, cfg, cfg.Obs)
	overflowed, err := r.finalPass()
	return relaxations + overflowed, err
}

// escapeLocal moves every movable cell whose movebound covers no region
// with capacity in its window to the nearest point of such a region
// anywhere on the chip, and returns the number of cells moved.
func escapeLocal(n *netlist.Netlist, wr *grid.WindowRegions) int {
	moved := 0
	for i := range n.Cells {
		if n.Cells[i].Fixed {
			continue
		}
		mb := n.Cells[i].Movebound
		fits := func(reg grid.WindowRegion) bool { return reg.Capacity > 0 && wr.Decomp.Admissible(mb, reg.Region) }
		id := netlist.CellID(i)
		pos := n.Pos(id)
		if slices.ContainsFunc(wr.PerWin[wr.Grid.LocateIndex(pos)], fits) {
			continue
		}
		moved++
		best, bestD := pos, math.Inf(1)
		for _, regs := range wr.PerWin {
			for _, reg := range regs {
				if !fits(reg) {
					continue
				}
				if q, ok := reg.Rects.Nearest(pos); ok && q.DistL1(pos) < bestD {
					best, bestD = q, q.DistL1(pos)
				}
			}
		}
		n.SetPos(id, best)
	}
	return moved
}

// newRealizer sets up the realization state of a solved model: every
// movable cell in the window holding its position, every flow-carrying
// external edge unrealized.
func newRealizer(m *Model, cfg Config, rec *obs.Recorder) *realizer {
	n := m.N
	g := m.WR.Grid
	W := g.NumWindows()
	r := &realizer{
		m:             m,
		n:             n,
		cfg:           cfg,
		rec:           rec,
		parked:        make([]bool, n.NumCells()),
		cellRegion:    make([]RegionRef, n.NumCells()),
		cellsIn:       make([][]int32, W),
		unrealizedOut: make([]float64, m.Classes*W*numDirs),
		outgoing:      make([][]int32, m.Classes*W),
	}
	r.scratch = make([]*workerScratch, r.workers(math.MaxInt))
	for i := range n.Cells {
		r.cellRegion[i] = RegionRef{-1, -1}
		if n.Cells[i].Fixed {
			continue
		}
		w := g.LocateIndex(n.Pos(netlist.CellID(i)))
		r.cellsIn[w] = append(r.cellsIn[w], int32(i))
	}
	r.rebuildEdgeIndex()
	return r
}

// realizeWaves realizes every flow-carrying external edge: topological
// level by level, each level in waves of units with disjoint footprints.
func (r *realizer) realizeWaves() error {
	levels, err := r.topoLevels()
	if err != nil {
		return err
	}
	for _, level := range levels {
		for _, wave := range r.waveSplit(level) {
			if r.cfg.Ctx != nil {
				if err := r.cfg.Ctx.Err(); err != nil {
					return err
				}
			}
			r.waves++
			if err := r.runWave(wave); err != nil {
				return err
			}
		}
	}
	return nil
}

// topoLevels orders the (class, window) units that carry outgoing external
// flow into topological levels of the flow-carrying external edge DAG.
// Each class subgraph is acyclic in an optimal MCF (a directed cycle would
// have to traverse positive-cost intra-window transit edges and could be
// canceled at profit), and distinct classes are vertex-disjoint subgraphs,
// so the union is a DAG. Rounding dust may still produce tiny residual
// cycles; those are broken at their smallest-flow edge.
func (r *realizer) topoLevels() ([][]unit, error) {
	W := r.m.WR.Grid.NumWindows()
	numUnits := r.m.Classes * W
	indeg := make([]int, numUnits)
	active := make([]bool, numUnits)
	for ei := range r.m.Externals {
		e := &r.m.Externals[ei]
		if e.Flow <= flow.Eps {
			continue
		}
		indeg[e.Class*W+e.To]++
		active[e.Class*W+e.From] = true
		active[e.Class*W+e.To] = true
	}
	level := make([]int, numUnits)
	queue := make([]int, 0, numUnits)
	totalActive := 0
	for u := 0; u < numUnits; u++ {
		if active[u] {
			totalActive++
			if indeg[u] == 0 {
				queue = append(queue, u)
			}
		}
	}
	processed := 0
	var order []int
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		processed++
		for _, ei := range r.outgoing[u] {
			e := &r.m.Externals[ei]
			v := e.Class*W + e.To
			if lv := level[u] + 1; lv > level[v] {
				level[v] = lv
			}
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if processed < totalActive {
		// Residual cycle: drop the smallest-flow edge still blocked and
		// retry (strictly decreases the number of flow-carrying edges).
		minEi, minFlow := -1, flow.Inf
		for ei := range r.m.Externals {
			e := &r.m.Externals[ei]
			if e.Flow > flow.Eps && e.Flow < minFlow && indeg[e.Class*W+e.To] > 0 {
				minEi, minFlow = ei, e.Flow
			}
		}
		if minEi < 0 {
			return nil, fmt.Errorf("fbp: external edge cycle could not be broken")
		}
		r.m.Externals[minEi].Flow = 0
		r.rebuildEdgeIndex()
		return r.topoLevels()
	}
	// Group units with outgoing edges by level. Levels and windows are
	// dense integers, so plain slices give the deterministic iteration
	// order that map grouping would have left to Go's map hashing.
	maxLevel := 0
	for _, u := range order {
		if len(r.outgoing[u]) > 0 && level[u] > maxLevel {
			maxLevel = level[u]
		}
	}
	byLevel := make([][]int, maxLevel+1)
	for _, u := range order {
		if len(r.outgoing[u]) == 0 {
			continue
		}
		byLevel[level[u]] = append(byLevel[level[u]], u)
	}
	var levels [][]unit
	for lv := 0; lv <= maxLevel; lv++ {
		us := byLevel[lv]
		if len(us) == 0 {
			continue
		}
		// Sort by (window, class): same-window units become adjacent and
		// merge into one unit, and units come out in window order.
		sort.Slice(us, func(a, b int) bool {
			wa, wb := us[a]%W, us[b]%W
			if wa != wb {
				return wa < wb
			}
			return us[a] < us[b]
		})
		var units []unit
		for _, u := range us {
			w, cls := u%W, u/W
			if len(units) == 0 || units[len(units)-1].window != w {
				units = append(units, unit{window: w})
			}
			units[len(units)-1].classes = append(units[len(units)-1].classes, cls)
		}
		levels = append(levels, units)
	}
	return levels, nil
}

func (r *realizer) rebuildEdgeIndex() {
	W := r.m.WR.Grid.NumWindows()
	for u := range r.outgoing {
		r.outgoing[u] = r.outgoing[u][:0]
	}
	for i := range r.unrealizedOut {
		r.unrealizedOut[i] = 0
	}
	for ei := range r.m.Externals {
		e := &r.m.Externals[ei]
		if e.Flow <= flow.Eps {
			continue
		}
		r.outgoing[e.Class*W+e.From] = append(r.outgoing[e.Class*W+e.From], int32(ei))
		r.unrealizedOut[(e.Class*W+e.From)*numDirs+e.FromDir] += e.Flow
	}
}

// waveSplit partitions one topological level into waves of units whose
// mutation footprints are pairwise disjoint (regardless of class — they
// mutate the same cell state), so each wave can run fully in parallel
// while staying deterministic. A unit's footprint is its window plus the
// 4-neighborhood it ships to, so two units conflict at window L1
// distance <= 2.
func (r *realizer) waveSplit(level []unit) [][]unit {
	g := r.m.WR.Grid
	var waves [][]unit
	taken := make([]int, len(level)) // wave index per unit
	for i := range taken {
		taken[i] = -1
	}
	for i, u := range level {
		ix, iy := g.Coords(u.window)
		wave := 0
	retry:
		for j := 0; j < i; j++ {
			if taken[j] != wave {
				continue
			}
			ox, oy := g.Coords(level[j].window)
			if abs(ox-ix)+abs(oy-iy) <= 2 {
				wave++
				goto retry
			}
		}
		taken[i] = wave
		for wave >= len(waves) {
			waves = append(waves, nil)
		}
		waves[wave] = append(waves[wave], u)
	}
	return waves
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// runWave realizes the outgoing external edges of each unit in the wave,
// in parallel. Positions of cells outside a unit's footprint are read from a
// snapshot taken at wave start, which makes the computation independent of
// scheduling order.
func (r *realizer) runWave(wave []unit) error {
	// Per-wave span with worker occupancy: busy time of all units over
	// workers * wall-clock. The fbp.occupancy gauge is the same ratio over
	// every wave recorded so far, from the counters fbp.wave_busy_s and
	// fbp.wave_capacity_s. Timing is gated on the recorder so disabled
	// runs pay only nil checks.
	workers := r.workers(len(wave))
	var waveStart time.Time
	var busyBefore int64
	ws := r.rec.StartSpan("wave")
	if r.rec != nil {
		ws.Attr("units", float64(len(wave)))
		ws.Attr("workers", float64(workers))
		waveStart = time.Now() //fbpvet:allow wave utilization metric for obs, not placement
		busyBefore = atomic.LoadInt64(&r.busyNS)
	}
	defer func() {
		if r.rec != nil {
			wall := time.Since(waveStart) //fbpvet:allow wave utilization metric for obs, not placement
			busy := atomic.LoadInt64(&r.busyNS) - busyBefore
			if wall > 0 && workers > 0 {
				busyS, capacityS := float64(busy)/1e9, wall.Seconds()*float64(workers)
				ws.Attr("occupancy", busyS/capacityS)
				r.rec.Count("fbp.wave_busy_s", busyS)
				r.rec.Count("fbp.wave_capacity_s", capacityS)
				r.rec.Gauge("fbp.occupancy", r.rec.Counter("fbp.wave_busy_s")/r.rec.Counter("fbp.wave_capacity_s"))
			}
			r.rec.Count("fbp.units", float64(len(wave)))
		}
		ws.End()
	}()
	var snapX, snapY []float64
	if r.cfg.LocalQP {
		r.snapX = append(r.snapX[:0], r.n.X...)
		r.snapY = append(r.snapY[:0], r.n.Y...)
		snapX, snapY = r.snapX, r.snapY
	}
	return r.runUnits(len(wave), "realize",
		func(i int) int { return wave[i].window },
		func(i int, sc *workerScratch) error { return r.realizeUnit(wave[i], snapX, snapY, sc) })
}

// workers returns the worker bound for n independent units: Config.Workers
// (GOMAXPROCS when 0), at most n.
func (r *realizer) workers(n int) int {
	w := r.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// runUnits is the one worker pool of the realization: r.workers(n)
// workers take the indices [0, n) from an atomic counter and run
// do(i, sc), worker k always with its own scratch r.scratch[k]. Worker 0
// is the calling goroutine, so a one-worker run starts no goroutine and
// never hands its units to another thread. Every call is a worker
// boundary: it is skipped once the context is canceled, a panic becomes a
// *UnitError for window(i) and phase (no process crash; the worker keeps
// draining), and its error is attributed to that window. The first error
// in index order is returned, so failure reporting is identical across
// worker counts, and runUnits waits for every worker, so no goroutine
// outlives it.
func (r *realizer) runUnits(n int, phase string, window func(i int) int, do func(i int, sc *workerScratch) error) error {
	call := func(i int, sc *workerScratch) (err error) {
		if r.cfg.Ctx != nil {
			if cerr := r.cfg.Ctx.Err(); cerr != nil {
				return cerr
			}
		}
		w := window(i)
		defer func() {
			if p := recover(); p != nil {
				err = &UnitError{Window: w, Phase: phase, Err: fmt.Errorf("panic: %v", p), Stack: debug.Stack()}
			}
		}()
		if r.rec == nil {
			return wrapUnitErr(w, phase, do(i, sc))
		}
		t0 := time.Now() //fbpvet:allow busy-time gauge for obs, not placement
		err = do(i, sc)
		atomic.AddInt64(&r.busyNS, int64(time.Since(t0))) //fbpvet:allow busy-time gauge for obs, not placement
		return wrapUnitErr(w, phase, err)
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func(k int) {
		if r.scratch[k] == nil {
			r.scratch[k] = newWorkerScratch()
		}
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = call(i, r.scratch[k])
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < r.workers(n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(k)
		}()
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLocalQP runs the low-precision connectivity QP over the given subset
// with everything outside fixed to the wave snapshot. The QP only steers
// the transportation costs, so it runs at low precision; without the caps,
// coarse levels would solve near-global systems to full CG tolerance once
// per unit. Its effort is reported separately from the placer's top-level
// solves (Stats.LocalQPSolves/LocalCGIters).
func (r *realizer) runLocalQP(u int, subset []netlist.CellID, snapX, snapY []float64, sc *workerScratch) error {
	opt := qp.Options{
		Tol:        1e-3,
		MaxIter:    60,
		ReadX:      snapX,
		ReadY:      snapY,
		BestEffort: true,
		Obs:        r.rec,
		Stats:      &r.qpStats,
		Ctx:        r.cfg.Ctx,
		Workspace:  sc.qp,
	}
	if err := qp.SolveSubset(r.n, subset, nil, opt); err != nil {
		return fmt.Errorf("fbp: local QP in window %d: %w", u, err)
	}
	return nil
}

// realizeUnit realizes all outgoing external edges of one window for the
// unit's classes, one target window at a time (paper §IV.B): each flow
// target gets a small transportation of the cells of the pair {u, to}
// onto the two windows' regions plus their still-unrealized transit
// capacities (eq. 2). One low-precision local QP over the footprint (the
// unit plus its flow targets) steers all pair costs.
//
// By flow conservation at the target, the realized flow fits into the
// target's regions plus its own unrealized outgoing capacities, and
// windows of the same topological level never ship to each other. The
// step is not guaranteed feasible, though: it offers the target's regions
// to the cells of both windows, including capacity the MCF reserved for
// inflow from a third window that is not realized yet, so it can take
// overflow (see Partition).
// Cells that must leave u towards a later target park at u's remaining
// transit sinks and are picked up again by that target's pair step.
// Targets are processed in ascending window order and each target's edge
// flows are removed from the transit capacities exactly when its pair is
// solved, so the pass is deterministic and realizes exactly the unit's
// outgoing flow.
func (r *realizer) realizeUnit(un unit, snapX, snapY []float64, sc *workerScratch) error {
	if err := unitFault.Check(); err != nil {
		return err
	}
	u := un.window
	targets := r.pairTargets(un, sc)
	if len(targets) == 0 {
		return nil
	}

	// One footprint QP (unit + targets) replaces the per-pair QPs.
	if r.cfg.LocalQP {
		subset := sc.subset[:0]
		appendWin := func(w int) {
			for _, c := range r.cellsIn[w] {
				if !r.parked[c] {
					subset = append(subset, netlist.CellID(c))
				}
			}
		}
		appendWin(u)
		for _, t := range targets {
			appendWin(t.to)
		}
		sc.subset = subset
		if len(subset) > 0 {
			if err := r.runLocalQP(u, subset, snapX, snapY, sc); err != nil {
				return err
			}
		}
	}

	st := &sc.step
	for _, t := range targets {
		r.markRealized(t.edges)
		r.buildStep(st, u, t.to)
		if len(st.cells) == 0 {
			continue
		}
		r.rec.Count("realize.pairpass", 1)
		if _, err := r.realizeStep(st); err != nil {
			return err
		}
	}
	return nil
}

// pairTargets groups the unit's outgoing external edges by target window,
// in ascending target order, reusing sc's target and edge buffers. Targets
// are the (at most 4) grid neighbors, so a linear scan groups faster than
// a map.
func (r *realizer) pairTargets(un unit, sc *workerScratch) []pairTarget {
	W := r.m.WR.Grid.NumWindows()
	targets := sc.targets[:0]
	for _, cls := range un.classes {
		for _, ei := range r.outgoing[cls*W+un.window] {
			to := r.m.Externals[ei].To
			t := 0
			for t < len(targets) && targets[t].to != to {
				t++
			}
			if t == len(targets) {
				if t < cap(targets) {
					// Reuse the edge buffer an earlier unit left in the slot.
					targets = targets[:t+1]
					targets[t].edges = targets[t].edges[:0]
				} else {
					targets = append(targets, pairTarget{})
				}
				targets[t].to = to
			}
			targets[t].edges = append(targets[t].edges, ei)
		}
	}
	slices.SortFunc(targets, func(a, b pairTarget) int { return a.to - b.to })
	sc.targets = targets
	return targets
}

// markRealized removes the flow of the given external edges from their
// unrealizedOut entries: that flow must move now.
func (r *realizer) markRealized(edges []int32) {
	W := r.m.WR.Grid.NumWindows()
	for _, ei := range edges {
		e := &r.m.Externals[ei]
		r.unrealizedOut[(e.Class*W+e.From)*numDirs+e.FromDir] -= e.Flow
	}
}

// sinkInfo describes one transportation sink of a realization step: a window
// region, or (during waves) a still-unrealized transit capacity.
type sinkInfo struct {
	window  int32
	region  int32 // region list index, or -1 for a transit sink
	class   int32 // class restriction for transit sinks, -1 = open
	pos     geom.Point
	rectSet geom.RectSet
}

// step is one window-to-region transportation of the realization: the
// cells of one window (final pass) or of a neighbor pair (pair pass) onto
// the windows' regions and their still-unrealized transit capacities.
// buildStep fills it from realizer state, roundCapacityAware rounds its
// solution and applyStep writes the plan back. Each worker reuses one
// step for all its transportations.
type step struct {
	windows []int
	// cells[i] is the cell of source i: the windows' cellsIn lists, one
	// after another.
	cells []int32
	// sinks[j] describes sink j.
	sinks []sinkInfo
	prob  transport.Problem
	// Buffers of roundCapacityAware; rounded[i] is the sink of source i.
	remaining []float64
	splits    []split
	rounded   []int
}

// split is a source the fractional plan spreads over several sinks.
type split struct {
	src  int
	size float64
}

// buildStep fills st with the transportation of every cell of the given
// windows onto the windows' regions plus their unrealized transit
// capacities, reading realizer state only. Each (class, window,
// direction) has exactly one external edge, whose flow is added to its
// unrealizedOut entry once and subtracted once, so after the waves every
// entry is exactly zero and the final pass offers regions only. A step
// without cells gets no sinks and no problem; callers skip it.
func (r *realizer) buildStep(st *step, windows ...int) {
	g := r.m.WR.Grid
	W := g.NumWindows()
	d := r.m.WR.Decomp
	numMB := len(d.Movebounds)

	st.windows = append(st.windows[:0], windows...)
	st.cells = st.cells[:0]
	for _, w := range windows {
		st.cells = append(st.cells, r.cellsIn[w]...)
	}
	if len(st.cells) == 0 {
		return
	}
	sinks := st.sinks[:0]
	caps := st.prob.Capacity[:0]
	for _, w := range windows {
		for k := range r.m.WR.PerWin[w] {
			reg := &r.m.WR.PerWin[w][k]
			if reg.Capacity <= 0 {
				continue
			}
			if len(reg.Rects) == 0 {
				// A region with capacity but no area cannot hold cells;
				// offering it as a sink would pin cells at their own
				// position (the empty-set nearest point used to degenerate
				// to the query point) at zero cost.
				r.rec.Count("fbp.repair.emptyRegion", 1)
				continue
			}
			sinks = append(sinks, sinkInfo{
				window: int32(w), region: int32(k), class: -1,
				pos: reg.Center, rectSet: reg.Rects,
			})
			caps = append(caps, reg.Capacity)
		}
	}
	for cls := 0; cls < r.m.Classes; cls++ {
		for _, w := range windows {
			for dir := 0; dir < numDirs; dir++ {
				rem := r.unrealizedOut[(cls*W+w)*numDirs+dir]
				if rem <= flow.Eps {
					continue
				}
				sinks = append(sinks, sinkInfo{
					window: int32(w), region: -1, class: int32(cls),
					pos: TransitPos(g, w, dir),
				})
				caps = append(caps, rem)
			}
		}
	}
	st.sinks = sinks
	p := &st.prob
	p.Capacity = caps
	p.Supply = resize(p.Supply, len(st.cells))
	p.Arcs = resize(p.Arcs, len(st.cells))
	p.Obs, p.Ctx, p.Degrade = r.rec, r.cfg.Ctx, r.cfg.Degrade
	for i, ci := range st.cells {
		c := &r.n.Cells[ci]
		p.Supply[i] = c.Size()
		arcs := p.Arcs[i][:0]
		pos := r.n.Pos(netlist.CellID(ci))
		cls := classOf(c.Movebound, numMB)
		for si := range sinks {
			s := &sinks[si]
			var cost float64
			if s.region >= 0 {
				reg := &r.m.WR.PerWin[s.window][s.region]
				if !d.Admissible(c.Movebound, reg.Region) {
					continue
				}
				// dist(c, r): L1 distance to the region area itself. The
				// rect set is non-empty by sink construction.
				q, _ := s.rectSet.Nearest(pos)
				cost = pos.DistL1(q)
			} else {
				if int(s.class) != cls {
					continue
				}
				cost = pos.DistL1(s.pos)
			}
			arcs = append(arcs, transport.Arc{Sink: si, Cost: cost})
		}
		p.Arcs[i] = arcs
	}
}

// resize returns s with length n, reusing its backing array (and whatever
// the elements there hold) when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// realizeStep solves the built step, rounds the solution and applies it.
// It reports whether the solve had to take overflow. The solve is elastic:
// when earlier steps overfilled the windows (see Partition), it spills the
// least overflow it can onto the cheapest full sinks; repairOverflow
// removes what the final pass leaves and Result.RoundingOverflow reports
// the rest.
func (r *realizer) realizeStep(st *step) (overflowed bool, err error) {
	sol, err := r.solveUnit(&st.prob)
	if err != nil {
		return false, fmt.Errorf("fbp: transportation of unit %d: %w", st.windows[0], err)
	}
	st.roundCapacityAware(sol)
	return sol.TotalOverflow() > 0, r.applyStep(st)
}

// solveUnit makes the unit's transportation solve and certifies the
// solution when a checker is configured.
func (r *realizer) solveUnit(p *transport.Problem) (*transport.Solution, error) {
	sol, err := transport.Solve(p)
	if err == nil && r.cfg.Check != nil {
		err = r.cfg.Check.Transport(p, sol)
	}
	return sol, err
}

// applyStep writes the rounded plan of a step back: the step's cells move
// between its windows, cells at a region sink are assigned to it and take
// its point nearest to their position, and cells at a transit sink park
// there. Of the steps it is the only writer of cellsIn, parked, cellRegion
// and the cell positions.
func (r *realizer) applyStep(st *step) error {
	for _, w := range st.windows {
		r.cellsIn[w] = r.cellsIn[w][:0]
	}
	for i, ci := range st.cells {
		si := st.rounded[i]
		if si < 0 {
			return fmt.Errorf("fbp: cell %d received no sink", ci)
		}
		s := &st.sinks[si]
		r.cellsIn[s.window] = append(r.cellsIn[s.window], ci)
		if s.region >= 0 {
			r.parked[ci] = false
			r.cellRegion[ci] = RegionRef{Window: s.window, Index: s.region}
			if q, ok := s.rectSet.Nearest(r.n.Pos(netlist.CellID(ci))); ok {
				r.n.SetPos(netlist.CellID(ci), q)
			}
		} else {
			r.parked[ci] = true
			r.cellRegion[ci] = RegionRef{-1, -1}
			r.n.SetPos(netlist.CellID(ci), s.pos)
		}
	}
	return nil
}

// roundCapacityAware rounds the fractional solution of the step's problem
// to an integral assignment in st.rounded: unsplit cells keep their sink;
// split cells are then placed, largest first, at the admissible sink of
// theirs with the most remaining capacity headroom after preferring the
// majority portion. This keeps the per-sink overflow bounded by one cell
// instead of letting many boundary cells pile onto the same region.
func (st *step) roundCapacityAware(sol *transport.Solution) {
	p := &st.prob
	remaining := append(st.remaining[:0], p.Capacity...)
	out := resize(st.rounded, len(sol.Assign))
	splits := st.splits[:0]
	for i, ps := range sol.Assign {
		if len(ps) == 1 {
			out[i] = ps[0].Sink
			remaining[ps[0].Sink] -= p.Supply[i]
			continue
		}
		out[i] = -1
		splits = append(splits, split{src: i, size: p.Supply[i]})
	}
	slices.SortFunc(splits, func(a, b split) int {
		if c := cmp.Compare(b.size, a.size); c != 0 {
			return c
		}
		return a.src - b.src
	})
	for _, s := range splits {
		best, bestScore, bestAmount := -1, 0.0, 0.0
		for _, portion := range sol.Assign[s.src] {
			// Prefer the portion-weighted sink, tempered by remaining
			// capacity so we do not overfill one sink repeatedly.
			score := portion.Amount
			if remaining[portion.Sink] < s.size {
				score -= 2 * (s.size - remaining[portion.Sink])
			}
			// Exact score ties are broken explicitly — larger portion
			// first, then lowest sink index — rather than by whichever
			// portion happens to come first in sol.Assign, so rounding
			// cannot depend on upstream portion ordering.
			//fbpvet:floatok exact tie-break on computed scores, then stored amounts, then sink index
			better := score > bestScore || (score == bestScore &&
				//fbpvet:floatok second tie level compares stored portion amounts exactly
				(portion.Amount > bestAmount || (portion.Amount == bestAmount && portion.Sink < best)))
			if best < 0 || better {
				best, bestScore, bestAmount = portion.Sink, score, portion.Amount
			}
		}
		out[s.src] = best
		remaining[best] -= s.size
	}
	st.remaining, st.splits, st.rounded = remaining, splits, out
}

// finalPass maps the cells of every window onto the window's regions
// (transit capacities are all realized by now) and returns the number of
// windows whose transportation had to take overflow. Windows are
// independent, so the pass runs on the worker pool; results are
// deterministic because each window's transportation only touches its own
// cells.
func (r *realizer) finalPass() (int, error) {
	var windows []int
	for w := range r.cellsIn {
		if len(r.cellsIn[w]) > 0 {
			windows = append(windows, w)
		}
	}
	overflowed := make([]bool, len(windows))
	err := r.runUnits(len(windows), "final",
		func(i int) int { return windows[i] },
		func(i int, sc *workerScratch) (err error) {
			if err := finalFault.Check(); err != nil {
				return err
			}
			r.buildStep(&sc.step, windows[i])
			overflowed[i], err = r.realizeStep(&sc.step)
			return err
		})
	count := 0
	for _, o := range overflowed {
		if o {
			count++
		}
	}
	return count, err
}

// repairOverflow relocates cells from regions whose rounded usage exceeds
// capacity to admissible regions with free space, nearest first, and
// returns the residual overflow: the area above capacity left in the
// regions plus the area of unassigned cells. Rounding leaves only a few
// cells' worth of overflow, so a greedy deterministic sweep suffices.
func (r *realizer) repairOverflow() float64 {
	wr := r.m.WR
	// Region k of window w is number off[w]+k.
	off := make([]int, len(wr.PerWin)+1)
	for w := range wr.PerWin {
		off[w+1] = off[w] + len(wr.PerWin[w])
	}
	refs := make([]RegionRef, off[len(wr.PerWin)])
	for w := range wr.PerWin {
		for k := range wr.PerWin[w] {
			refs[off[w]+k] = RegionRef{Window: int32(w), Index: int32(k)}
		}
	}
	usage := make([]float64, len(refs))
	cellsOf := make([][]int32, len(refs))
	moved, movedArea, residual := 0, 0.0, 0.0
	for i := range r.n.Cells {
		if r.n.Cells[i].Fixed {
			continue
		}
		ref := r.cellRegion[i]
		if ref.Window < 0 {
			residual += r.n.Cells[i].Size()
			continue
		}
		ri := off[ref.Window] + int(ref.Index)
		usage[ri] += r.n.Cells[i].Size()
		cellsOf[ri] = append(cellsOf[ri], int32(i))
	}
	capOf := func(ri int) float64 { return wr.PerWin[refs[ri].Window][refs[ri].Index].Capacity }
	for ri := range refs {
		over := usage[ri] - capOf(ri)
		if over <= flow.Eps {
			continue
		}
		// Move smallest cells first: they fit into slack most easily and
		// minimize moved area beyond the strict overflow.
		cells := append([]int32(nil), cellsOf[ri]...)
		sort.Slice(cells, func(a, b int) bool {
			sa, sb := r.n.Cells[cells[a]].Size(), r.n.Cells[cells[b]].Size()
			//fbpvet:floatok exact tie-break on stored sizes keeps the sort total
			if sa != sb {
				return sa < sb
			}
			return cells[a] < cells[b]
		})
		for _, ci := range cells {
			if over <= flow.Eps {
				break
			}
			size := r.n.Cells[ci].Size()
			pos := r.n.Pos(netlist.CellID(ci))
			mb := r.n.Cells[ci].Movebound
			best := -1
			bestD := 0.0
			var bestPos geom.Point
			for cand, cref := range refs {
				if cand == ri {
					continue
				}
				reg := &wr.PerWin[cref.Window][cref.Index]
				if !wr.Decomp.Admissible(mb, reg.Region) {
					continue
				}
				if capOf(cand)-usage[cand] < size {
					continue
				}
				q, ok := reg.Rects.Nearest(pos)
				if !ok {
					// A region without area is no relocation target.
					r.rec.Count("fbp.repair.emptyRegion", 1)
					continue
				}
				d := q.DistL1(pos)
				if best < 0 || d < bestD {
					best, bestD, bestPos = cand, d, q
				}
			}
			if best < 0 {
				continue // no headroom anywhere admissible; leave the cell
			}
			usage[ri] -= size
			usage[best] += size
			over -= size
			moved++
			movedArea += size
			r.cellRegion[ci] = refs[best]
			r.n.SetPos(netlist.CellID(ci), bestPos)
		}
	}
	r.rec.Count("fbp.repair.movedCells", float64(moved))
	r.rec.Count("fbp.repair.movedArea", movedArea)
	for ri := range refs {
		if u, c := usage[ri], capOf(ri); u > c {
			residual += u - c
		}
	}
	return residual
}
