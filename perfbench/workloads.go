package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/cluster"
	"fbplace/internal/fbp"
	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// Workload sizes, chosen so one iteration takes about 1-5 s at the seed
// commit on a 2-core host and a run averages over several instances.
// README.md explains how each was chosen.
const (
	mbShallowCells     = 1500
	flatClusteredCells = 5000
	table1Scale        = 0.001
	// serveUnique distinct gen.LoadMix specs make up a serve-mix batch;
	// serveDuplicates is serve.RunLoad's Duplicates setting in fbplaced's
	// -selftest, which submits every fourth spec twice.
	serveUnique     = 40
	serveDuplicates = 4
)

// table1Grids are the table1-fine grid sizes (k x k windows): Table I's
// finest level for table1Scale's 2580 cells (gen.GridLevels) and a 576-window
// level past it, whose global MCF takes about 1.3 s at the seed commit. The
// 1024-window level's MCF takes 6-8 s, too long to average several
// instances in one run.
var table1Grids = []int{16, 24}

// sample is the outcome of one measured iteration.
type sample struct {
	// wall is the time inside the timed window, in seconds: set-up,
	// instance cloning and certification stay outside it.
	wall float64
	hpwl float64
	// violations counts movebound violations; overlaps counts overlapping
	// cell pairs, -1 for a workload that does not legalize.
	violations, overlaps int
	// attempted and failed count the iteration's operations (placements,
	// grid levels, jobs); a failed certificate is a failed operation.
	attempted, failed int
	// jobs holds per-job submit-to-result latencies in seconds (serve-mix);
	// nil where one iteration is one job.
	jobs []float64
	// layers holds a traced iteration's per-layer figures, spans its span
	// times and events its trace (all nil when untraced).
	layers   map[string]float64
	spans    *spanTimes
	events   []obs.Event
	problems []string
}

func (s *sample) fail(format string, a ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, a...))
}

// bench is a set-up workload, ready to run measured iterations.
type bench interface {
	// iterate runs one measured iteration; traced iterations record spans
	// and counters and fill sample.layers.
	iterate(ctx context.Context, traced bool) *sample
	close()
}

// setupFunc builds a bench on the instance generated from seed; tmp is a
// scratch directory that outlives the bench.
type setupFunc func(ctx context.Context, seed int64, tmp string) (bench, error)

// workload is a set-up function and the time one of its instances takes
// (set-up, measured iteration and check) at the seed commit on a 2-core
// host. A run of s seconds measures instanceCount(s) instances whatever the
// host's speed, so two runs on one seed always measure the same work.
type workload struct {
	setup           setupFunc
	instanceSeconds float64
}

var workloads = map[string]workload{
	"mb-shallow":     {setupMBShallow, 0.8},
	"flat-clustered": {setupFlatClustered, 0.9},
	"table1-fine":    {setupTable1Fine, 2.2},
	"serve-mix":      {setupServeMix, 4},
}

// instanceCount is how many instances a run of the given length measures:
// as many as fit at the seed commit's speed, at least two.
func (w workload) instanceCount(seconds float64) int {
	return max(2, int(math.Round(seconds/w.instanceSeconds)))
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// layerUnits lists every per-layer metric with its unit, in report order.
// reported marks the ones in the JSON line: those every workload exercises,
// taken from spans and counters all four emit (see perLayerReported). The
// others are 0 on some workload by construction; they are printed and kept
// by -out.
var layerUnits = []struct {
	name, unit string
	reported   bool
}{
	{"placer.global_s", "s", false},
	{"placer.legalize_s", "s", false},
	{"placer.alloc_mb", "MB", false},
	{"cluster.bestchoice_s", "s", false},
	{"qp.initial_s", "s", false},
	{"qp.anchored_s", "s", false},
	{"qp.top_solves", "count", false},
	{"qp.top_cg_iters", "count", false},
	{"qp.local_solves", "count", false},
	{"qp.local_cg_iters", "count", false},
	{"qp.cg_solves", "count", true},
	{"qp.cg_iters", "count", true},
	{"qp.nets_visited", "count", true},
	{"grid.regions_s", "s", false},
	{"fbp.build_s", "s", true},
	{"flow.solve_s", "s", true},
	{"flow.pivots", "count", true},
	{"flow.us_per_pivot", "us", true},
	{"flow.solve_alloc_mb", "MB", false},
	{"fbp.realize_s", "s", true},
	{"fbp.realize_block_s", "s", false},
	{"fbp.realize_pair_s", "s", false},
	{"fbp.realize_alloc_mb", "MB", false},
	{"fbp.wave_s", "s", true},
	{"fbp.wave_max_s", "s", true},
	{"fbp.final_s", "s", true},
	{"fbp.repair_s", "s", true},
	{"fbp.repair_moved_cells", "count", true},
	{"fbp.rounding_overflow", "area", false},
	{"transport.solves", "count", true},
	{"transport.sources", "count", true},
	{"transport.splits", "count", true},
	{"transport.ns_warm_ratio", "fraction", true},
	{"realize.pairpass", "count", false},
	{"legalize.partition_s", "s", false},
	{"legalize.pack_s", "s", false},
	{"legalize.spilled", "count", false},
	{"degrade.events", "count", false},
	{"certify.placement_s", "s", false},
	{"certify.fail", "count", false},
	{"certify.repair", "count", false},
	{"ckpt.writes", "count", false},
	{"ckpt.write_s", "s", false},
	{"serve.submit_s", "s", false},
	{"serve.result_s", "s", false},
	{"serve.cache_hit_ratio", "fraction", false},
	{"serve.coalesced", "count", false},
	{"serve.rejected", "count", false},
	{"serve.preemptions", "count", false},
	{"trace.overhead_frac", "fraction", true},
}

// pairPassMinWindows is fbp's default pair-pass threshold: levels with at
// least this many windows realize by neighbor pairs, smaller ones by 3x3
// blocks.
const pairPassMinWindows = 256

// traceLayers adds the figures the obs spans and counters of one traced
// recorder carry, and returns its span times.
func traceLayers(l map[string]float64, events []obs.Event, counters map[string]float64) *spanTimes {
	st := newSpanTimes()
	st.add(events)
	spanLayers(l, st, counters)
	return st
}

// spanLayers maps span totals and counters onto the layer metrics. Every
// workload's placements emit the same spans, in process or through the
// daemon's event stream, so these figures mean the same on all of them.
func spanLayers(l map[string]float64, st *spanTimes, c map[string]float64) {
	l["placer.global_s"] += st.total["global"]
	l["placer.legalize_s"] += st.total["legalize"]
	l["qp.initial_s"] += st.total["qp.initial"]
	l["qp.anchored_s"] += st.total["qp.anchored"]
	l["fbp.build_s"] += st.total["fbp.build"]
	l["flow.solve_s"] += st.total["fbp.solve"]
	l["flow.pivots"] += st.attr["fbp.solve.pivots"]
	l["flow.us_per_pivot"] = usPerPivot(l["flow.solve_s"], l["flow.pivots"])
	l["fbp.realize_s"] += st.total["fbp.realize"]
	for g, d := range st.byGrid["fbp.realize"] {
		if g*g < pairPassMinWindows {
			l["fbp.realize_block_s"] += d
		} else {
			l["fbp.realize_pair_s"] += d
		}
	}
	l["fbp.wave_s"] += st.total["wave"]
	l["fbp.wave_max_s"] = max(l["fbp.wave_max_s"], st.max["wave"])
	l["fbp.final_s"] += st.total["fbp.final"]
	l["fbp.repair_s"] += st.total["fbp.repair"]
	l["legalize.partition_s"] += st.total["legalize.partition"]
	l["legalize.pack_s"] += st.total["legalize.pack"]
	l["certify.placement_s"] += st.total["certify.placement"]
	l["ckpt.write_s"] += st.total["ckpt.write"]
	l["qp.cg_solves"] += c["cg.solves"]
	l["qp.cg_iters"] += c["cg.iters"]
	l["qp.nets_visited"] += c["qp.netsVisited"]
	l["fbp.repair_moved_cells"] += c["fbp.repair.movedCells"]
	l["transport.solves"] += c["transport.solves"]
	l["transport.sources"] += c["transport.sources"]
	l["transport.splits"] += c["transport.splits"]
	l["realize.pairpass"] += c["realize.pairpass"]
	l["legalize.spilled"] += c["legalize.spilled"]
	l["ckpt.writes"] += c["ckpt.writes"]
	l["ns.warmstart"] += c["ns.warmstart"]
	l["ns.coldfallback"] += c["ns.coldfallback"]
	l["transport.ns_warm_ratio"] = nsWarmRatio(l["ns.warmstart"], l["ns.coldfallback"])
}

// levelLayers adds the realization-local QP effort of one FBP level.
func levelLayers(l map[string]float64, s fbp.Stats) {
	l["qp.local_solves"] += float64(s.LocalQPSolves)
	l["qp.local_cg_iters"] += float64(s.LocalCGIters)
}

// reportLayers adds the figures of a placer report.
func reportLayers(l map[string]float64, rep *placer.Report) {
	l["qp.top_solves"] += float64(rep.QPSolves)
	l["qp.top_cg_iters"] += float64(rep.CGIters)
	l["degrade.events"] += float64(len(rep.Degradations))
	for _, s := range rep.FBPStats {
		levelLayers(l, s)
	}
}

func allocMB(before, after *runtime.MemStats) float64 {
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// placeBench times full placer.PlaceCtx runs on one generated instance.
type placeBench struct {
	inst *gen.Instance
	mbs  []region.Movebound // normalized, for certification
	cfg  placer.Config
}

// movebound2Spec is cmd/genchip's instance for -movebounds 2 -pct 0.4 (two
// inclusive movebounds of density 0.7 holding 40% of the cells,
// utilization 0.55) without its two macros. How much the realization time
// varies between seeds grows steeply with the movebound count and with
// the macros' random blockages; README.md has the figures.
func movebound2Spec(cells int, seed int64) gen.ChipSpec {
	const movebounds, pct = 2, 0.4
	spec := gen.ChipSpec{Name: "custom", NumCells: cells, Seed: seed, Utilization: 0.55}
	for m := 0; m < movebounds; m++ {
		spec.Movebounds = append(spec.Movebounds, gen.MoveboundSpec{
			Kind: region.Inclusive, CellFraction: pct / float64(movebounds), Density: 0.7, NestedIn: -1,
		})
	}
	return spec
}

func setupMBShallow(_ context.Context, seed int64, _ string) (bench, error) {
	return newPlaceBench(movebound2Spec(mbShallowCells, seed), 0)
}

func setupFlatClustered(_ context.Context, seed int64, _ string) (bench, error) {
	// cmd/fbplace's generated instance (no macros, no movebounds) with the
	// paper's Table II cluster ratio.
	return newPlaceBench(gen.ChipSpec{Name: "cli", NumCells: flatClusteredCells, Seed: seed}, 5)
}

func newPlaceBench(spec gen.ChipSpec, clusterRatio float64) (*placeBench, error) {
	inst, err := gen.Chip(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		return nil, fmt.Errorf("normalize movebounds: %w", err)
	}
	return &placeBench{inst: inst, mbs: mbs, cfg: placer.Config{
		Movebounds:    inst.Movebounds,
		ClusterRatio:  clusterRatio,
		TargetDensity: 0.97,
		Workers:       runtime.NumCPU(),
	}}, nil
}

func (b *placeBench) iterate(ctx context.Context, traced bool) *sample {
	s := &sample{attempted: 1}
	n := b.inst.N.Clone()
	cfg := b.cfg
	col := &collector{}
	if traced {
		cfg.Obs = obs.New(col)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	rep, err := placer.PlaceCtx(ctx, n, cfg)
	s.wall = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	if err != nil {
		s.fail("place: %v", err)
		return s
	}
	s.hpwl, s.violations, s.overlaps = rep.HPWL, rep.Violations, rep.Overlaps
	chk := &certify.Checker{Ctx: ctx, Level: -1}
	if err := chk.Placement(n, b.mbs, certify.Reported{
		HPWL: rep.HPWL, Violations: rep.Violations, Overlaps: rep.Overlaps,
		Legalized: true, TargetDensity: cfg.TargetDensity,
	}); err != nil {
		s.fail("%v", err)
	}
	if traced {
		s.layers = map[string]float64{}
		reportLayers(s.layers, rep)
		s.layers["placer.alloc_mb"] = allocMB(&m0, &m1)
		s.events = col.take()
		s.spans = traceLayers(s.layers, s.events, cfg.Obs.Counters())
		if cfg.ClusterRatio > 1 {
			// Clustering has no span of its own; time the public call on
			// the same input the placer starts from.
			c := b.inst.N.Clone()
			t := time.Now()
			cluster.BestChoice(c, cluster.Options{Ratio: cfg.ClusterRatio})
			s.layers["cluster.bestchoice_s"] = time.Since(t).Seconds()
		}
	}
	return s
}

func (b *placeBench) close() {}

// table1Bench runs the paper's Table I fine levels directly: window
// regions, model build, global MCF and realization per grid, each level
// from the same RQL-spread placement (as exp.Table1 does).
type table1Bench struct {
	base      *netlist.Netlist
	decomp    *region.Decomposition
	blockages geom.RectSet
	mbs       []region.Movebound
}

func setupTable1Fine(_ context.Context, seed int64, _ string) (bench, error) {
	spec := gen.ErhardLike(table1Scale)
	spec.Seed = seed
	inst, err := gen.Chip(spec)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		return nil, fmt.Errorf("normalize movebounds: %w", err)
	}
	base := inst.N.Clone()
	if _, err := rql.Place(base, rql.Config{MaxIters: 4, Movebounds: mbs}); err != nil {
		return nil, fmt.Errorf("rql spread: %w", err)
	}
	return &table1Bench{
		base: base, decomp: region.Decompose(inst.N.Area, mbs),
		blockages: inst.N.FixedRects(), mbs: mbs,
	}, nil
}

func (b *table1Bench) iterate(ctx context.Context, traced bool) *sample {
	s := &sample{overlaps: -1}
	col := &collector{}
	var rec *obs.Recorder
	l := map[string]float64{}
	if traced {
		rec = obs.New(col)
	}
	for _, k := range table1Grids {
		s.attempted++
		if !b.level(ctx, k, rec, s, l) {
			break
		}
	}
	if traced {
		s.events = col.take()
		s.spans = traceLayers(l, s.events, rec.Counters())
		s.layers = l
	}
	return s
}

// level runs and certifies one k x k grid level from the spread placement;
// false means the level failed and the sweep stops. A traced level is one
// "level" span with the grid size, as the placer's own levels are, around
// the spans the fbp calls emit and the benchmark's "fbp.build" span.
func (b *table1Bench) level(ctx context.Context, k int, rec *obs.Recorder, s *sample, l map[string]float64) bool {
	lv := rec.StartSpan("level")
	lv.Attr("grid", float64(k))
	defer lv.End()
	n := b.base.Clone()
	g, err := grid.New(n.Area, k, k)
	if err != nil {
		s.fail("grid %dx%d: %v", k, k, err)
		return false
	}
	// The timed window is regions + build + solve + realize; memory
	// readings and certification sit between the timed calls.
	var m0, m1, m2, m3 runtime.MemStats
	t0 := time.Now()
	wr := grid.BuildWindowRegions(g, b.decomp, b.blockages, 0.97)
	regionsS := time.Since(t0).Seconds()
	t1 := time.Now()
	bsp := rec.StartSpan("fbp.build")
	model := fbp.BuildModel(n, wr, g.AssignCells(n))
	bsp.End()
	buildS := time.Since(t1).Seconds()
	model.Obs = rec
	model.G.Ctx = ctx
	runtime.ReadMemStats(&m0)
	t2 := time.Now()
	err = model.Solve()
	solveS := time.Since(t2).Seconds()
	runtime.ReadMemStats(&m1)
	s.wall += regionsS + buildS + solveS
	if err != nil {
		s.fail("grid %dx%d solve: %v", k, k, err)
		return false
	}
	chk := &certify.Checker{Ctx: ctx, Level: k}
	ferr := chk.Flow(model.G)
	cfg := fbp.DefaultConfig()
	cfg.Obs = rec
	cfg.Ctx = ctx
	runtime.ReadMemStats(&m2)
	t3 := time.Now()
	res, err := fbp.Realize(model, cfg)
	s.wall += time.Since(t3).Seconds()
	runtime.ReadMemStats(&m3)
	if ferr != nil {
		s.fail("%v", ferr)
	}
	if err != nil {
		s.fail("grid %dx%d realize: %v", k, k, err)
		return false
	}
	if err := chk.Partition(n, wr, res); err != nil {
		s.fail("%v", err)
	}
	s.violations += positionViolations(n, b.mbs)
	s.hpwl = n.HPWL()
	if rec != nil {
		l["grid.regions_s"] += regionsS
		levelLayers(l, res.Stats)
		l["fbp.rounding_overflow"] += res.RoundingOverflow
		l["flow.solve_alloc_mb"] += allocMB(&m0, &m1)
		l["fbp.realize_alloc_mb"] += allocMB(&m2, &m3)
	}
	return true
}

func (b *table1Bench) close() {}

// positionViolations counts movable cells whose position lies outside
// their inclusive movebound. A partitioned level is not legalized yet, so
// a cell's extent may still cross its region boundary; its position is
// what the partitioning guarantees (region.CheckLegal tests the extent and
// applies to legalized placements only).
func positionViolations(n *netlist.Netlist, mbs []region.Movebound) int {
	viol := 0
	for i := range n.Cells {
		c := &n.Cells[i]
		if c.Fixed || c.Movebound == netlist.NoMovebound || mbs[c.Movebound].Kind != region.Inclusive {
			continue
		}
		if !mbs[c.Movebound].Area.Contains(n.Pos(netlist.CellID(i))) {
			viol++
		}
	}
	return viol
}
