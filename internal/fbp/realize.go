package fbp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
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
	// RoundingOverflow is the total cell area exceeding region capacities
	// after majority rounding of split cells (diagnostics; absorbed by
	// later levels or legalization).
	RoundingOverflow float64
}

// realizer carries the mutable state of the realization phase.
type realizer struct {
	m   *Model
	n   *netlist.Netlist
	cfg Config

	// Per movable cell: current window, position, parked-at-transit flag.
	curWin []int32
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
	incoming [][]int32

	// pairMode is set when the pair pass is active for this run (the flag
	// is on and the grid is at least Config.PairPassMinWindows windows):
	// wave units realize per neighbor pair instead of per 3x3 block.
	pairMode bool

	waves int

	// scratch is the free list of per-worker reusable buffers. Entries
	// start as nil and are materialized on first acquire, so a run never
	// pays for workers it does not use.
	scratch chan *workerScratch
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

// workerScratch bundles the reusable buffers a realization worker needs
// for one unit: the local QP workspace plus the sink, transportation and
// membership buffers of transportBlock. A scratch is borrowed from the
// realizer's free list for the duration of one unit, so steady-state
// realization allocates O(block) per unit instead of rebuilding every
// buffer. Reuse never changes results: all buffers are fully rewritten
// per unit.
type workerScratch struct {
	qp     *qp.Workspace
	subset []netlist.CellID
	sinks  []sinkInfo
	caps   []float64
	supply []float64
	arcs   [][]transport.Arc
	// present is an epoch-stamped per-cell membership mark replacing the
	// per-call map that filtered window cell lists.
	present      []uint32
	presentEpoch uint32
	// cellBuf is the reusable cell-collection buffer of the realization
	// steps. It is owned by the scratch, never by a window list, so the
	// apply phase of transportBlock may rewrite the window lists while
	// iterating it.
	cellBuf []int32
}

// getScratch borrows a worker scratch from the free list, materializing it
// on first use. The free list holds exactly as many slots as the worker
// bound of the run, so the receive never blocks.
func (r *realizer) getScratch() *workerScratch {
	sc := <-r.scratch
	if sc == nil {
		sc = &workerScratch{qp: qp.NewWorkspace()}
	}
	return sc
}

func (r *realizer) putScratch(sc *workerScratch) { r.scratch <- sc }

// markPresent stamps the given cells in the scratch's epoch-stamped
// membership array (sized to the netlist on first use) and returns the
// epoch to test against.
func (sc *workerScratch) markPresent(numCells int, cells []int32) uint32 {
	if len(sc.present) < numCells {
		sc.present = make([]uint32, numCells)
	}
	sc.presentEpoch++
	if sc.presentEpoch == 0 {
		for i := range sc.present {
			sc.present[i] = 0
		}
		sc.presentEpoch = 1
	}
	for _, ci := range cells {
		sc.present[ci] = sc.presentEpoch
	}
	return sc.presentEpoch
}

// unit is a realization step: one window together with the classes whose
// outgoing external edges are realized in this step. Multiple classes of
// the same window at the same topological level are merged into one step —
// the block transportation repartitions all block cells anyway, so
// realizing them together saves a full local QP + transport per class.
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
// Feasibility invariant (sketch; the window-at-a-time variant of the
// paper's per-edge induction [22]): at every stage and for every window w
// and movebound class c,
//
//	area_c(w) <= absorbed_c(w) + unrealizedOut_c(w),
//
// where absorbed_c(w) is the class's share of w's region capacities in
// the MCF solution and unrealizedOut_c(w) the flow on c's not yet
// realized outgoing external edges. It holds initially by flow
// conservation (supply + in = absorbed + out at each cell-group/transit
// subgraph), and each realization step preserves it: the step's
// transportation admits exactly the region capacities plus the remaining
// transit capacities as sinks, and the incoming flows being realized fit
// because f_e <= unrealizedIn_c(w) and
// area_c(w) + unrealizedIn_c(w) <= absorbed_c(w) + unrealizedOut_c(w)
// (conservation again). Processing units in topological order of the
// flow-carrying external edges guarantees all of a unit's incoming edges
// are realized before its outgoing ones, so after the last unit
// unrealizedOut == 0 everywhere and the final per-window transportation
// (cells -> regions) is feasible. Majority rounding perturbs the
// invariant by at most a cell per sink; the capacity-aware rounding, the
// relaxation ladder and repairOverflow bound and then remove that drift.
func Partition(n *netlist.Netlist, wr *grid.WindowRegions, cfg Config) (*Result, error) {
	bsp := cfg.Obs.StartSpan("fbp.build")
	assign := wr.Grid.AssignCells(n)
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

// Realize turns a solved model into a cell-to-region partitioning.
func Realize(m *Model, cfg Config) (*Result, error) {
	rec := cfg.Obs
	if rec == nil {
		rec = m.Obs
	}
	rsp := rec.StartSpan("fbp.realize")
	defer rsp.End()
	start := time.Now() //fbpvet:allow timing feeds Stats.RealizeTime only, never positions
	n := m.N
	g := m.WR.Grid
	W := g.NumWindows()
	r := &realizer{
		m:             m,
		n:             n,
		cfg:           cfg,
		rec:           rec,
		curWin:        make([]int32, n.NumCells()),
		parked:        make([]bool, n.NumCells()),
		cellRegion:    make([]RegionRef, n.NumCells()),
		cellsIn:       make([][]int32, W),
		unrealizedOut: make([]float64, m.Classes*W*numDirs),
		outgoing:      make([][]int32, m.Classes*W),
		incoming:      make([][]int32, m.Classes*W),
	}
	pairMin := cfg.PairPassMinWindows
	if pairMin <= 0 {
		pairMin = 256
	}
	r.pairMode = cfg.PairPass && W >= pairMin
	maxWorkers := cfg.Workers
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	r.scratch = make(chan *workerScratch, maxWorkers)
	for i := 0; i < maxWorkers; i++ {
		r.scratch <- nil
	}
	for i := range n.Cells {
		r.cellRegion[i] = RegionRef{-1, -1}
		if n.Cells[i].Fixed {
			r.curWin[i] = -1
			continue
		}
		w := int32(g.LocateIndex(n.Pos(netlist.CellID(i))))
		r.curWin[i] = w
		r.cellsIn[w] = append(r.cellsIn[w], int32(i))
	}
	r.rebuildEdgeIndex()

	levels, err := r.topoLevels()
	if err != nil {
		return nil, err
	}
	for _, level := range levels {
		for _, wave := range r.waveSplit(level) {
			if cfg.Ctx != nil {
				if err := cfg.Ctx.Err(); err != nil {
					return nil, err
				}
			}
			r.waves++
			if err := r.runWave(wave); err != nil {
				return nil, err
			}
		}
	}
	// Final internal partitioning: every window maps its cells to its
	// regions (no transit sinks remain).
	fsp := rec.StartSpan("fbp.final")
	if err := r.finalPass(); err != nil {
		fsp.End()
		return nil, err
	}
	fsp.End()
	// Repair the residual overflow left by majority rounding across
	// multi-hop realizations: move the smallest set of cells from
	// overfull regions to the nearest admissible regions with headroom.
	psp := rec.StartSpan("fbp.repair")
	r.repairOverflow()
	psp.End()
	m.Stats.RealizeTime = time.Since(start) //fbpvet:allow reporting-only duration
	m.Stats.Waves = r.waves
	m.Stats.LocalQPSolves, m.Stats.LocalCGIters = r.qpStats.Snapshot()
	rec.Count("fbp.waves", float64(r.waves))

	res := &Result{CellRegion: r.cellRegion, Stats: m.Stats}
	res.RoundingOverflow = r.roundingOverflow()
	return res, nil
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
		r.incoming[u] = r.incoming[u][:0]
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
		r.incoming[e.Class*W+e.To] = append(r.incoming[e.Class*W+e.To], int32(ei))
		r.unrealizedOut[(e.Class*W+e.From)*numDirs+e.FromDir] += e.Flow
	}
}

// waveSplit partitions one topological level into waves of units whose
// mutation footprints are pairwise disjoint (regardless of class — they
// mutate the same cell state), so each wave can run fully in parallel
// while staying deterministic. In block mode the footprint is the 3x3
// block (units conflict at window Chebyshev distance <= 2); in pair mode
// it is the window plus its 4-neighborhood, so the L1 distance decides
// and levels split into fewer, denser waves.
func (r *realizer) waveSplit(level []unit) [][]unit {
	g := r.m.WR.Grid
	conflict := func(ax, ay, bx, by int) bool {
		if r.pairMode {
			return abs(ax-bx)+abs(ay-by) <= 2
		}
		return abs(ax-bx) <= 2 && abs(ay-by) <= 2
	}
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
			if conflict(ox, oy, ix, iy) {
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
// in parallel. Positions of cells outside a unit's block are read from a
// snapshot taken at wave start, which makes the computation independent of
// scheduling order.
func (r *realizer) runWave(wave []unit) error {
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(wave) {
		workers = len(wave)
	}
	// Per-wave span with worker occupancy: busy time of all units over
	// workers * wall-clock. Timing is gated on the recorder so disabled
	// runs pay only nil checks.
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
				occ := float64(busy) / (float64(wall) * float64(workers))
				ws.Attr("occupancy", occ)
				r.rec.Gauge("fbp.occupancy", occ)
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
	realize := func(u unit) error {
		sc := r.getScratch()
		defer r.putScratch(sc)
		if r.rec == nil {
			return r.safeRealize(u, snapX, snapY, sc)
		}
		t0 := time.Now() //fbpvet:allow busy-time gauge for obs, not placement
		err := r.safeRealize(u, snapX, snapY, sc)
		atomic.AddInt64(&r.busyNS, int64(time.Since(t0))) //fbpvet:allow busy-time gauge for obs, not placement
		return err
	}
	if workers <= 1 {
		for _, u := range wave {
			if err := realize(u); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(wave))
	sem := make(chan struct{}, workers)
	for i, u := range wave {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, u unit) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = realize(u)
		}(i, u)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// safeRealize is the worker boundary around realizeUnit: it skips units of
// a canceled wave, converts a panicking unit into a structured *UnitError
// (no process crash, the worker keeps draining), and attributes errors to
// their window. Both the sequential and the parallel path of runWave go
// through it, so panic behavior is identical across worker counts.
func (r *realizer) safeRealize(u unit, snapX, snapY []float64, sc *workerScratch) (err error) {
	if r.cfg.Ctx != nil {
		if cerr := r.cfg.Ctx.Err(); cerr != nil {
			return cerr
		}
	}
	defer func() {
		if p := recover(); p != nil {
			err = &UnitError{
				Window: u.window, Phase: "realize",
				Err:   fmt.Errorf("panic: %v", p),
				Stack: debug.Stack(),
			}
		}
	}()
	if r.pairMode {
		return wrapUnitErr(u.window, "realize", r.realizeUnitPairs(u, snapX, snapY, sc))
	}
	return wrapUnitErr(u.window, "realize", r.realizeUnit(u, snapX, snapY, sc))
}

// realizeUnit realizes all outgoing external edges of one window for the
// unit's classes: local QP over the 3x3 block, then a movebound-aware
// transportation of all block cells onto the block's regions plus the
// block's still-unrealized transit capacities (eq. 2).
func (r *realizer) realizeUnit(un unit, snapX, snapY []float64, sc *workerScratch) error {
	if err := unitFault.Check(); err != nil {
		return err
	}
	g := r.m.WR.Grid
	W := g.NumWindows()
	u := un.window
	block := g.Block3x3(u)

	// Mark the unit's outgoing edges realized (their flow must move now).
	for _, cls := range un.classes {
		for _, ei := range r.outgoing[cls*W+u] {
			e := &r.m.Externals[ei]
			r.unrealizedOut[(e.Class*W+e.From)*numDirs+e.FromDir] -= e.Flow
		}
	}

	// Collect the block's cells.
	cells := sc.cellBuf[:0]
	for _, w := range block {
		cells = append(cells, r.cellsIn[w]...)
	}
	sc.cellBuf = cells
	if len(cells) == 0 {
		return nil
	}
	// Local QP with everything outside the block fixed (snapshot reads).
	if r.cfg.LocalQP {
		subset := sc.subset[:0]
		for _, c := range cells {
			if !r.parked[c] {
				subset = append(subset, netlist.CellID(c))
			}
		}
		sc.subset = subset
		if err := r.runLocalQP(u, subset, snapX, snapY, sc); err != nil {
			return err
		}
	}
	return r.transportBlock(u, block, cells, true, sc)
}

// runLocalQP runs the low-precision connectivity QP over the given subset
// with everything outside fixed to the wave snapshot. The QP only steers
// the transportation costs, so it runs at low precision; without the caps,
// coarse levels would solve near-global systems to full CG tolerance once
// per unit.
func (r *realizer) runLocalQP(u int, subset []netlist.CellID, snapX, snapY []float64, sc *workerScratch) error {
	opt := r.cfg.QP
	opt.ReadX, opt.ReadY = snapX, snapY
	opt.Workspace = sc.qp
	if opt.Tol == 0 {
		opt.Tol = 1e-3
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 60
	}
	opt.BestEffort = true
	// Local QP effort is reported separately from the placer's
	// top-level solves (Stats.LocalQPSolves/LocalCGIters).
	opt.Obs = r.rec
	opt.Stats = &r.qpStats
	opt.Ctx = r.cfg.Ctx
	opt.Degrade = r.cfg.Degrade
	if err := qp.SolveSubset(r.n, subset, nil, opt); err != nil {
		return fmt.Errorf("fbp: local QP in window %d: %w", u, err)
	}
	return nil
}

// realizeUnitPairs is the neighbor-pair reoptimization of realizeUnit for
// deep levels: instead of one transportation over the full 3x3 block —
// whose cell and sink counts are dominated by neighbors the unit does not
// ship to — the unit's outgoing edges are realized one target window at a
// time with tiny two-window transportations. One low-precision local QP
// over the footprint (the unit plus its flow targets) steers all pair
// costs.
//
// Pair steps preserve the feasibility invariant of Partition with
// B = {u, to}: the realized flow fits into the target's regions plus its
// own unrealized outgoing capacities by flow conservation at the target,
// and windows of the same topological level never ship to each other.
// Cells that must leave u towards a later target park at u's remaining
// transit sinks and are picked up again by that target's pair step.
// Targets are processed in ascending window order and each target's edge
// flows are removed from the transit capacities exactly when its pair is
// solved, so the pass is deterministic and realizes exactly the unit's
// outgoing flow.
func (r *realizer) realizeUnitPairs(un unit, snapX, snapY []float64, sc *workerScratch) error {
	if err := unitFault.Check(); err != nil {
		return err
	}
	g := r.m.WR.Grid
	W := g.NumWindows()
	u := un.window

	// Group the unit's outgoing edges by target window. Targets are the
	// (at most 4) grid neighbors, so a linear scan groups faster than a
	// map and stays allocation-free after the first unit.
	type pairTarget struct {
		to    int
		edges []int32
	}
	var targets []pairTarget
	for _, cls := range un.classes {
		for _, ei := range r.outgoing[cls*W+u] {
			e := &r.m.Externals[ei]
			found := false
			for t := range targets {
				if targets[t].to == e.To {
					targets[t].edges = append(targets[t].edges, ei)
					found = true
					break
				}
			}
			if !found {
				targets = append(targets, pairTarget{to: e.To, edges: []int32{ei}})
			}
		}
	}
	if len(targets) == 0 {
		return nil
	}
	sort.Slice(targets, func(a, b int) bool { return targets[a].to < targets[b].to })

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

	var pair [2]int
	for _, t := range targets {
		// Mark this target's edges realized (their flow must move now).
		for _, ei := range t.edges {
			e := &r.m.Externals[ei]
			r.unrealizedOut[(e.Class*W+e.From)*numDirs+e.FromDir] -= e.Flow
		}
		cells := sc.cellBuf[:0]
		cells = append(cells, r.cellsIn[u]...)
		cells = append(cells, r.cellsIn[t.to]...)
		sc.cellBuf = cells
		if len(cells) == 0 {
			continue
		}
		pair[0], pair[1] = u, t.to
		r.rec.Count("realize.pairpass", 1)
		if err := r.transportBlock(u, pair[:], cells, true, sc); err != nil {
			return err
		}
	}
	return nil
}

// sinkInfo describes one transportation sink of a block step: a window
// region, or (during waves) a still-unrealized transit capacity.
type sinkInfo struct {
	window  int32
	region  int32 // region list index, or -1 for a transit sink
	class   int32 // class restriction for transit sinks, -1 = open
	dir     int32
	pos     geom.Point
	rectSet geom.RectSet
}

// transportBlock partitions the given cells among the regions of the
// block windows plus (if allowTransit) the unrealized transit capacities.
func (r *realizer) transportBlock(u int, block []int, cells []int32, allowTransit bool, sc *workerScratch) error {
	g := r.m.WR.Grid
	W := g.NumWindows()
	d := r.m.WR.Decomp
	numMB := len(d.Movebounds)

	sinks := sc.sinks[:0]
	caps := sc.caps[:0]
	for _, w := range block {
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
	if allowTransit {
		for cls := 0; cls < r.m.Classes; cls++ {
			for _, w := range block {
				for dir := 0; dir < numDirs; dir++ {
					rem := r.unrealizedOut[(cls*W+w)*numDirs+dir]
					if rem <= flow.Eps {
						continue
					}
					sinks = append(sinks, sinkInfo{
						window: int32(w), region: -1, class: int32(cls), dir: int32(dir),
						pos: TransitPos(g, w, dir),
					})
					caps = append(caps, rem)
				}
			}
		}
	}
	sc.sinks, sc.caps = sinks, caps
	supply := sc.supply
	if cap(supply) < len(cells) {
		supply = make([]float64, len(cells))
	} else {
		supply = supply[:len(cells)]
	}
	arcs := sc.arcs
	if cap(arcs) < len(cells) {
		arcs = append(arcs[:cap(arcs)], make([][]transport.Arc, len(cells)-cap(arcs))...)
	} else {
		arcs = arcs[:len(cells)]
	}
	sc.supply, sc.arcs = supply, arcs
	prob := &transport.Problem{
		Supply:   supply,
		Capacity: caps,
		Arcs:     arcs,
		Obs:      r.rec,
		Ctx:      r.cfg.Ctx,
		Degrade:  r.cfg.Degrade,
	}
	for i, ci := range cells {
		c := &r.n.Cells[ci]
		supply[i] = c.Size()
		arcs[i] = arcs[i][:0]
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
				q, _ := nearestInSet(s.rectSet, pos)
				cost = pos.DistL1(q)
			} else {
				if int(s.class) != cls {
					continue
				}
				cost = pos.DistL1(s.pos)
			}
			arcs[i] = append(arcs[i], transport.Arc{Sink: si, Cost: cost})
		}
	}
	sol, err := r.solveWithRelaxation(prob)
	if err != nil {
		return fmt.Errorf("fbp: transportation in block of window %d: %w", u, err)
	}
	rounded := roundCapacityAware(prob, sol)
	// Apply: move cells between windows, set positions and assignments.
	// First remove all block cells from their window lists, then re-add.
	ep := sc.markPresent(r.n.NumCells(), cells)
	for _, w := range block {
		kept := r.cellsIn[w][:0]
		for _, ci := range r.cellsIn[w] {
			if sc.present[ci] != ep {
				kept = append(kept, ci)
			}
		}
		r.cellsIn[w] = kept
	}
	for i, ci := range cells {
		si := rounded[i]
		if si < 0 {
			return fmt.Errorf("fbp: cell %d received no sink", ci)
		}
		s := &sinks[si]
		r.curWin[ci] = s.window
		r.cellsIn[s.window] = append(r.cellsIn[s.window], ci)
		if s.region >= 0 {
			r.parked[ci] = false
			r.cellRegion[ci] = RegionRef{Window: s.window, Index: s.region}
			if q, ok := nearestInSet(s.rectSet, r.n.Pos(netlist.CellID(ci))); ok {
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

// roundCapacityAware rounds the fractional transportation solution to an
// integral assignment: unsplit cells keep their sink; split cells are then
// placed, largest first, at the admissible sink of theirs with the most
// remaining capacity headroom after preferring the majority portion. This
// keeps the per-sink overflow bounded by one cell instead of letting many
// boundary cells pile onto the same region.
func roundCapacityAware(p *transport.Problem, sol *transport.Solution) []int {
	remaining := append([]float64(nil), p.Capacity...)
	out := make([]int, len(sol.Assign))
	type split struct {
		src  int
		size float64
	}
	var splits []split
	for i, ps := range sol.Assign {
		if len(ps) == 1 {
			out[i] = ps[0].Sink
			remaining[ps[0].Sink] -= p.Supply[i]
			continue
		}
		out[i] = -1
		splits = append(splits, split{src: i, size: p.Supply[i]})
	}
	sort.Slice(splits, func(a, b int) bool {
		//fbpvet:floatok exact tie-break on stored sizes keeps the sort total
		if splits[a].size != splits[b].size {
			return splits[a].size > splits[b].size
		}
		return splits[a].src < splits[b].src
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
	return out
}

// solveWithRelaxation retries an infeasible transportation with gently
// inflated capacities: majority rounding of earlier steps can overfill a
// block by a few cells' area. The inflation ladder keeps the violation
// bounded and is recorded by the caller via Result.RoundingOverflow.
// Every rung runs the condensed engine (with its reference fallback);
// rungs climbed above the first count as fbp.relax.rungs.
func (r *realizer) solveWithRelaxation(p *transport.Problem) (*transport.Solution, error) {
	factors := []float64{1, 1.001, 1.02, 1.1, 1.5, 4, 64}
	base := append([]float64(nil), p.Capacity...)
	defer copy(p.Capacity, base)
	var lastErr error
	for ri, f := range factors {
		if ri > 0 {
			r.rec.Count("fbp.relax.rungs", 1)
		}
		for i := range p.Capacity {
			p.Capacity[i] = base[i] * f
		}
		sol, err := transport.Solve(p)
		if err == nil {
			if r.cfg.Check != nil {
				// Certify against the capacities the rung actually solved
				// with (still inflated here; restored on return).
				if cerr := r.cfg.Check.Transport(p, sol); cerr != nil {
					return nil, cerr
				}
			}
			return sol, nil
		}
		lastErr = err
		if !errors.Is(err, transport.ErrInfeasible) {
			// Cancellation or an engine failure: inflating capacities
			// cannot help, so climbing the ladder would only repeat it.
			break
		}
	}
	return nil, lastErr
}

// nearestInSet returns the point of the rectangle set closest (L1) to p.
// The second result is false when the set is empty; callers must not treat
// the query point as a member then (it used to be returned silently, which
// made empty regions look like zero-distance targets).
func nearestInSet(rs geom.RectSet, p geom.Point) (geom.Point, bool) {
	best := p
	bestD := -1.0
	for _, rect := range rs {
		q := rect.ClampPoint(p)
		d := q.DistL1(p)
		if bestD < 0 || d < bestD {
			best, bestD = q, d
		}
	}
	return best, bestD >= 0
}

// finalPass maps the cells of every window onto the window's regions
// (transit capacities are all realized by now). Windows are independent,
// so the pass runs on a worker pool; results are deterministic because
// each window's transportation only touches its own cells. Errors are
// collected per window and the first one in window order is returned, so
// failure reporting is identical across worker counts; workers never exit
// early and the producer selects on cancellation, so neither the producer
// nor the workers can leak when a window fails or the context expires.
func (r *realizer) finalPass() error {
	g := r.m.WR.Grid
	var windows []int
	for w := 0; w < g.NumWindows(); w++ {
		if len(r.cellsIn[w]) > 0 {
			windows = append(windows, w)
		}
	}
	workers := r.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(windows) {
		workers = len(windows)
	}
	// finalize is the worker boundary of the final pass, mirroring
	// safeRealize: cancellation check, injection point, panic recovery.
	finalize := func(w int) (err error) {
		if r.cfg.Ctx != nil {
			if cerr := r.cfg.Ctx.Err(); cerr != nil {
				return cerr
			}
		}
		defer func() {
			if p := recover(); p != nil {
				err = &UnitError{
					Window: w, Phase: "final",
					Err:   fmt.Errorf("panic: %v", p),
					Stack: debug.Stack(),
				}
			}
		}()
		if err := finalFault.Check(); err != nil {
			return &UnitError{Window: w, Phase: "final", Err: err}
		}
		sc := r.getScratch()
		defer r.putScratch(sc)
		return wrapUnitErr(w, "final", r.transportBlock(w, []int{w}, append([]int32(nil), r.cellsIn[w]...), false, sc))
	}
	if workers <= 1 {
		for _, w := range windows {
			if err := finalize(w); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, len(windows))
	next := make(chan int)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = finalize(windows[i])
			}
		}()
	}
	var done <-chan struct{}
	if r.cfg.Ctx != nil {
		done = r.cfg.Ctx.Done()
	}
producer:
	for i := range windows {
		select {
		case next <- i:
		case <-done: // nil channel when no context: never selected
			break producer
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if r.cfg.Ctx != nil {
		if err := r.cfg.Ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// repairOverflow relocates cells from regions whose rounded usage exceeds
// capacity to admissible regions with free space, nearest first. Rounding
// leaves only a few cells' worth of overflow, so a greedy deterministic
// sweep suffices.
func (r *realizer) repairOverflow() {
	wr := r.m.WR
	// usage and cellsOf are keyed accumulators only — every read below
	// goes through the sorted refs slice, never map iteration, so repair
	// order is independent of Go map hashing.
	usage := map[RegionRef]float64{}
	cellsOf := map[RegionRef][]int32{}
	moved, movedArea := 0, 0.0
	for i := range r.n.Cells {
		if r.n.Cells[i].Fixed {
			continue
		}
		ref := r.cellRegion[i]
		usage[ref] += r.n.Cells[i].Size()
		cellsOf[ref] = append(cellsOf[ref], int32(i))
	}
	// All region refs in deterministic order.
	var refs []RegionRef
	for w := range wr.PerWin {
		for k := range wr.PerWin[w] {
			refs = append(refs, RegionRef{Window: int32(w), Index: int32(k)})
		}
	}
	capOf := func(ref RegionRef) float64 { return wr.PerWin[ref.Window][ref.Index].Capacity }
	for _, ref := range refs {
		over := usage[ref] - capOf(ref)
		if over <= flow.Eps {
			continue
		}
		// Move smallest cells first: they fit into slack most easily and
		// minimize moved area beyond the strict overflow.
		cells := append([]int32(nil), cellsOf[ref]...)
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
			best := RegionRef{-1, -1}
			bestD := 0.0
			var bestPos geom.Point
			for _, cand := range refs {
				if cand == ref {
					continue
				}
				reg := &wr.PerWin[cand.Window][cand.Index]
				if !wr.Decomp.Admissible(mb, reg.Region) {
					continue
				}
				if capOf(cand)-usage[cand] < size {
					continue
				}
				q, ok := nearestInSet(reg.Rects, pos)
				if !ok {
					// A region without area is no relocation target.
					r.rec.Count("fbp.repair.emptyRegion", 1)
					continue
				}
				d := q.DistL1(pos)
				if best.Window < 0 || d < bestD {
					best, bestD, bestPos = cand, d, q
				}
			}
			if best.Window < 0 {
				continue // no headroom anywhere admissible; leave the cell
			}
			usage[ref] -= size
			usage[best] += size
			over -= size
			moved++
			movedArea += size
			r.cellRegion[ci] = best
			r.curWin[ci] = best.Window
			r.n.SetPos(netlist.CellID(ci), bestPos)
		}
	}
	r.rec.Count("fbp.repair.movedCells", float64(moved))
	r.rec.Count("fbp.repair.movedArea", movedArea)
}

// roundingOverflow sums, over all window-regions, the assigned cell area
// exceeding the region capacity. The map is keyed accumulation only; the
// summation walks regions in index order so the floating-point total is
// bit-identical across runs (map iteration order would not be).
func (r *realizer) roundingOverflow() float64 {
	usage := map[RegionRef]float64{}
	total := 0.0
	for i := range r.n.Cells {
		if r.n.Cells[i].Fixed {
			continue
		}
		ref := r.cellRegion[i]
		if ref.Window < 0 {
			total += r.n.Cells[i].Size() // unassigned cells count fully
			continue
		}
		usage[ref] += r.n.Cells[i].Size()
	}
	for w := range r.m.WR.PerWin {
		for k := range r.m.WR.PerWin[w] {
			ref := RegionRef{Window: int32(w), Index: int32(k)}
			if u, c := usage[ref], r.m.WR.PerWin[w][k].Capacity; u > c {
				total += u - c
			}
		}
	}
	return total
}
