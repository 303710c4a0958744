// Package placer drives global placement: a loop of quadratic netlength
// minimization and partitioning on successively finer window grids
// (paper §III/§IV), followed by legalization. Each level partitions with
// one of two engines of internal/fbp: the paper's flow-based partitioning
// (fbp.Partition) or the classical recursive window-by-window
// quadrisection it improves upon ([5],[17],[27] — the ablation baseline,
// fbp.PartitionLocal), which lacks the global view and may have to relax
// capacities locally.
package placer

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/ckpt"
	"fbplace/internal/cluster"
	"fbplace/internal/degrade"
	"fbplace/internal/detail"
	"fbplace/internal/faultsim"
	"fbplace/internal/fbp"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
	"fbplace/internal/region"
)

// levelFault fails a partitioning level at entry, exercising the placer's
// structured error propagation out of the global loop.
var levelFault = faultsim.Register("placer.level.fail",
	"a global-loop partitioning level fails at entry")

// corruptFault silently bit-flips one cell position between realization
// and legalization — the kind of wrong answer no solver error path can
// report. It exists to prove end-to-end that certification catches
// corruption, the one whole-run re-run repairs it, and a corrupted result
// is never cached (see internal/serve and ci.sh).
var corruptFault = faultsim.Register("certify.corrupt",
	"bit-flips one cell position between realization and legalization")

// CertifyMode selects how much of a run is independently certified.
type CertifyMode int

const (
	// CertifyOff runs no certification (the default).
	CertifyOff CertifyMode = iota
	// CertifyFinal certifies the final placement only: positions sane and
	// the report matching an independent recount/recompute.
	CertifyFinal
	// CertifyEveryLevel additionally certifies every FBP level: MCF
	// optimality (dual feasibility/complementary slackness), every
	// realization transportation, and the partition invariants.
	CertifyEveryLevel
)

// Mode selects the partitioning engine.
type Mode int

const (
	// ModeFBP is the paper's flow-based partitioning.
	ModeFBP Mode = iota
	// ModeRecursive is the classical local recursive partitioning
	// baseline (no global MinCostFlow; every window partitioned on its
	// own, see fbp.PartitionLocal).
	ModeRecursive
)

// Config tunes the placer. It holds only values some caller sets; the
// rest of the recipe is fixed: the anchor weight (anchorWeight), the
// first level (firstLevel), the quadratic solver's net-model constants
// (internal/qp) and legalization's search over every row.
type Config struct {
	// Mode selects FBP or the recursive baseline.
	Mode Mode
	// TargetDensity scales region capacities (paper experiments: 0.97).
	TargetDensity float64
	// Movebounds are the raw movebounds; they are normalized internally.
	Movebounds []region.Movebound
	// ClusterRatio enables BestChoice clustering when > 1.
	ClusterRatio float64
	// MaxLevels caps grid refinement: the finest level partitions a
	// 2^MaxLevels x 2^MaxLevels window grid. 0 = automatic.
	MaxLevels int
	// Workers bounds realization parallelism (0 = GOMAXPROCS).
	Workers int
	// NoLocalQP disables the connectivity-aware local QP that normally
	// runs before each realization transportation (paper §IV.B). The
	// local QP is on by default; set NoLocalQP for the ablation or to
	// trade quality for speed.
	NoLocalQP bool
	// SkipLegalization stops after global placement.
	SkipLegalization bool
	// KeepPlacement starts from the current cell positions instead of a
	// fresh quadratic solve (incremental placement, §IV motivation).
	KeepPlacement bool
	// DetailPasses runs legality-preserving detailed placement after
	// legalization (0 = off).
	DetailPasses int
	// Checkpoint, when Dir is set, makes the global loop emit crash-safe
	// snapshots at level boundaries; Resume continues from them. See
	// internal/ckpt and the Checkpoint type.
	Checkpoint Checkpoint
	// Preempt, when non-nil, is polled once per completed level of the
	// checkpointed (flat) global loop. When it returns true and the
	// level's snapshot is safely on disk, the run stops with a
	// *PreemptedError instead of continuing — Resume later picks up from
	// that snapshot bit-identically, which is what makes preemption safe
	// (see internal/serve). When the snapshot cannot be written the
	// preemption is skipped and recorded as a degradation ("preempt" ->
	// "kept-running"): a preemption request must never corrupt or lose a
	// healthy run. Preempt is ignored without Checkpoint.Dir and during
	// the clustered coarse levels (which are never snapshotted).
	Preempt func() bool
	// Obs, when non-nil, records phase spans, solver counters and gauges
	// for the whole run (see internal/obs). A nil recorder disables
	// observability at the cost of a nil check per call site.
	Obs *obs.Recorder
	// Certify enables independent result certification (internal/certify).
	// A failed certificate — a level's (CertifyEveryLevel) or the final
	// placement's — restores the entry positions and re-runs the whole
	// placement once, recorded as a "certify" -> "safe-mode" degradation
	// with the certify.fail/certify.repair counters. Placements are
	// bit-identical across worker counts, so the re-run follows the
	// default trajectory. A re-run that fails certification again
	// propagates the *certify.Error to the caller.
	Certify CertifyMode
}

// fbpConfig derives the partitioning configuration of one FBP level from
// c; sys is the placement's held spring system, whose slices are the
// realization-local QPs. check is nil unless every level is certified.
func (c Config) fbpConfig(ctx context.Context, dl *degrade.Log, sys *qp.System, check *certify.Checker) fbp.Config {
	fc := fbp.Config{
		LocalQP: !c.NoLocalQP,
		Workers: c.Workers,
		Obs:     c.Obs,
		Ctx:     ctx,
		Degrade: dl,
		System:  sys,
	}
	if check != nil {
		fc.Check = check
	}
	return fc
}

// anchorWeight is the weight of the spring that ties every movable cell
// to its partitioned position in each level's anchored QP. It is the same
// for every cell, level and chip size, and of the order of a cell's net
// springs, so the anchored QP keeps most of the spread the partitioning
// bought instead of pulling the cells back into a collapsed placement.
const anchorWeight = 2

// firstLevel is the first partitioning level of a fresh FBP placement:
// the 4x4 window grid. A 2x2 level starts from the collapsed initial QP,
// and the 4x4 level does its spreading and more. Runs whose finest level
// is coarser start there. The recursive baseline keeps its 2x2 first cut
// (classical quadrisection; its windows cannot pass cells on, so a 4x4
// start from the collapsed QP costs it wirelength). Incremental placement
// (KeepPlacement) and resumed runs keep their own start.
const firstLevel = 2

func (c *Config) fill() {
	if c.TargetDensity == 0 {
		c.TargetDensity = 0.97
	}
}

// ConfigError reports a structurally invalid Config field. It is returned
// by Place before any work starts, so a bad configuration can never
// produce a half-finished placement.
type ConfigError struct {
	// Field is the Config field name, Reason the constraint it violates.
	Field, Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("placer: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for invalid values. Zero values are
// always valid (they select documented defaults).
func (c *Config) Validate() error {
	if c.Mode != ModeFBP && c.Mode != ModeRecursive {
		return &ConfigError{Field: "Mode", Reason: fmt.Sprintf("unknown mode %d", c.Mode)}
	}
	// NaN compares false both ways, so it must be rejected explicitly.
	if math.IsNaN(c.TargetDensity) || c.TargetDensity < 0 || c.TargetDensity > 1 {
		return &ConfigError{Field: "TargetDensity", Reason: fmt.Sprintf("%g outside (0, 1]", c.TargetDensity)}
	}
	if math.IsNaN(c.ClusterRatio) || math.IsInf(c.ClusterRatio, 0) {
		return &ConfigError{Field: "ClusterRatio", Reason: fmt.Sprintf("non-finite ratio %g", c.ClusterRatio)}
	}
	if c.ClusterRatio < 0 {
		return &ConfigError{Field: "ClusterRatio", Reason: fmt.Sprintf("negative ratio %g", c.ClusterRatio)}
	}
	if c.MaxLevels < 0 {
		return &ConfigError{Field: "MaxLevels", Reason: fmt.Sprintf("negative level count %d", c.MaxLevels)}
	}
	if c.Workers < 0 {
		return &ConfigError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", c.Workers)}
	}
	if c.DetailPasses < 0 {
		return &ConfigError{Field: "DetailPasses", Reason: fmt.Sprintf("negative pass count %d", c.DetailPasses)}
	}
	if c.Certify < CertifyOff || c.Certify > CertifyEveryLevel {
		return &ConfigError{Field: "Certify", Reason: fmt.Sprintf("unknown mode %d", c.Certify)}
	}
	return nil
}

// Report summarizes a placement run.
type Report struct {
	// HPWL is the final half-perimeter wirelength.
	HPWL float64
	// GlobalTime and LegalTime split the wall-clock (paper Table VI).
	GlobalTime, LegalTime time.Duration
	// Levels is the number of partitioning levels executed, clustered
	// and flat (in FBP mode, len(FBPStats)); PlannedLevels predicts it.
	Levels int
	// Violations counts cells violating movebounds after legalization.
	Violations int
	// Overlaps counts overlapping cell pairs (0 for successful runs).
	Overlaps int
	// FBPStats holds per-level flow statistics (FBP mode), including the
	// per-level network-simplex pivot counts and local-QP CG iterations.
	FBPStats []fbp.Stats
	// QPSolves and CGIters count the top-level quadratic solves (initial
	// plus per-level anchored) and their total CG iterations over both
	// axes. Realization-local QP effort is reported per level in
	// FBPStats instead.
	QPSolves, CGIters int64
	// Relaxations counts the local repairs of the recursive baseline: one
	// per cell teleported out of a window with no admissible region, and
	// one per window whose transportation had to take overflow above its
	// region capacities. FBP runs never relax.
	Relaxations int
	// LegalizeResult carries movement statistics.
	LegalizeResult legalize.Result
	// DetailResult carries detailed-placement statistics (when enabled).
	DetailResult detail.Result
	// Degradations lists the solver fallbacks taken during the run, sorted
	// by (Stage, Fallback, Detail); empty for a fully converged run. A
	// degraded run still satisfies every hard guarantee (movebounds,
	// legality) — the entries say where optimality was traded for
	// robustness (see DESIGN.md §6).
	Degradations []degrade.Event
	// Certified is true when Config.Certify was enabled and the final
	// certificates held (possibly after the certify re-run, which then
	// appears in Degradations as a "certify" stage).
	Certified bool
}

// Place runs global placement and legalization on the netlist in place.
func Place(n *netlist.Netlist, cfg Config) (*Report, error) {
	return PlaceCtx(context.Background(), n, cfg)
}

// PlaceCtx is Place with cancellation: ctx is threaded through the global
// loop into the CG, network-simplex and transportation solvers, so a
// canceled or already-expired context aborts within one outer iteration
// and returns the context's error. Fallbacks taken by the solver chains
// are collected in Report.Degradations.
func PlaceCtx(ctx context.Context, n *netlist.Netlist, cfg Config) (*Report, error) {
	return run(ctx, n, cfg, "")
}

// Resume continues a checkpointed placement from the newest valid
// snapshot in dir (written by a run with Config.Checkpoint.Dir set). The
// netlist must be the same instance in its load-time state: Resume
// validates a structural fingerprint of the circuit and a hash of the
// configuration, and refuses mismatches with a *ResumeError rather than
// continuing a run that would diverge from the interrupted one. On
// success the remaining levels, legalization and detail run as usual, and
// the final placement is bit-identical to what the uninterrupted run
// would have produced. Pre-crash degradations, per-level stats and solver
// counters are restored into the Report.
func Resume(ctx context.Context, n *netlist.Netlist, dir string, cfg Config) (*Report, error) {
	if dir == "" {
		return nil, &ResumeError{Dir: dir, Reason: "empty checkpoint directory"}
	}
	return run(ctx, n, cfg, dir)
}

// run is the shared body of PlaceCtx and Resume; resumeDir is empty for
// fresh runs. It also owns the one certify repair: a *certify.Error from
// the attempt restores the entry positions and re-runs the placement once,
// fresh, sequentially and without checkpoints or preemption, so the re-run
// shares no state with the attempt that produced the wrong answer. A
// second certify failure propagates.
func run(ctx context.Context, n *netlist.Netlist, cfg Config, resumeDir string) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg.fill()
	dl := degrade.New(cfg.Obs)
	var entryX, entryY []float64
	if cfg.Certify != CertifyOff {
		entryX = append([]float64(nil), n.X...)
		entryY = append([]float64(nil), n.Y...)
	}
	rep, err := runOnce(ctx, n, cfg, resumeDir, dl)
	var ce *certify.Error
	if !errors.As(err, &ce) {
		return rep, err
	}
	cfg.Obs.Count("certify.fail", 1)
	dl.Add("certify", "safe-mode", ce.Error())
	cfg.Obs.Count("certify.repair", 1)
	copy(n.X, entryX)
	copy(n.Y, entryY)
	cfg.Workers = 1
	cfg.Checkpoint = Checkpoint{}
	cfg.Preempt = nil
	rep, err = runOnce(ctx, n, cfg, "", dl)
	if errors.As(err, &ce) {
		cfg.Obs.Count("certify.fail", 1)
	}
	return rep, err
}

// runOnce executes one placement attempt; the degradation log is owned by
// run so a repair attempt extends its predecessor's record.
func runOnce(ctx context.Context, n *netlist.Netlist, cfg Config, resumeDir string, dl *degrade.Log) (*Report, error) {
	if err := validateNumerics(n); err != nil {
		return nil, err
	}
	psp := cfg.Obs.StartSpan("place")
	defer psp.End()
	// Top-level QP effort feeds Report.QPSolves/CGIters; the realization
	// runs its local solves with its own options, so the split stays
	// clean. The top-level solves (initial + one anchored per level) run
	// strictly one after another on the system globalLoop holds in this
	// workspace.
	var qpStats qp.SolveStats
	qopt := qp.Options{Obs: cfg.Obs, Stats: &qpStats, Ctx: ctx, Degrade: dl, Workspace: qp.NewWorkspace()}
	mbs, err := region.Normalize(n.Area, cfg.Movebounds)
	if err != nil {
		return nil, err
	}
	if err := n.Validate(len(mbs)); err != nil {
		return nil, err
	}
	decomp := region.Decompose(n.Area, mbs)
	blockages := n.FixedRects()
	caps := decomp.Capacities(blockages, cfg.TargetDensity)
	if rep := region.CheckFeasibility(n, decomp, caps); !rep.Feasible {
		return nil, fmt.Errorf("placer: instance infeasible (Theorem 2): %.1f cell area vs %.1f routable capacity",
			rep.TotalSize, rep.Routed)
	}

	report := &Report{}
	// The degradation log fills regardless of how the run ends, so attach
	// it on every path that hands the report out.
	defer func() { report.Degradations = dl.Events() }()

	levels := levelsFor(n, cfg)
	plan := planLevels(levels, cfg)

	// Checkpoint/resume: both sides key snapshots to the instance and the
	// configuration, so a snapshot can never be applied to a different
	// circuit or continued under a diverging trajectory.
	var netFP, cfgFP uint64
	if cfg.Checkpoint.Dir != "" || resumeDir != "" {
		netFP = ckpt.Fingerprint(n)
		cfgFP = configFingerprint(&cfg)
	}
	var snap *snapshot
	if resumeDir != "" {
		var rerr error
		snap, rerr = loadResume(n, resumeDir, netFP, cfgFP, levels, dl, &qpStats, report, cfg.Obs)
		if rerr != nil {
			return nil, rerr
		}
		// Snapshots are taken on flat levels only, and the flat levels
		// run up to the finest one, so the levels after the snapshot's
		// are the only ones left.
		report.Levels = plan.count() - (levels - snap.Level)
	}

	gsp := cfg.Obs.StartSpan("global")
	start := time.Now() //fbpvet:allow timing feeds Report.GlobalTime only, never positions
	var baseElapsed time.Duration
	if snap != nil {
		baseElapsed = snap.GlobalElapsed
	}

	startLevel := plan.flatFirst
	// Incremental placement (§IV motivation) starts from the existing,
	// already spread placement.
	freshQP := !cfg.KeepPlacement
	if snap != nil {
		// The snapshot holds the positions after snap.Level's anchored QP;
		// continue with the next level, from those positions (no fresh
		// initial solve — it would discard them).
		startLevel = snap.Level + 1
		freshQP = false
	}
	var ck *ckptState
	if cfg.Checkpoint.Dir != "" {
		ck = &ckptState{
			store:   &ckpt.Store{Dir: cfg.Checkpoint.Dir, Obs: cfg.Obs},
			netFP:   netFP,
			cfgFP:   cfgFP,
			levels:  levels,
			qpStats: &qpStats,
			report:  report,
			dl:      dl,
			rec:     cfg.Obs,
			start:   start,
			base:    baseElapsed,
		}
	}
	finishGlobal := func() {
		report.GlobalTime = baseElapsed + time.Since(start) //fbpvet:allow reporting-only duration
		report.QPSolves, report.CGIters = qpStats.Snapshot()
		gsp.End()
	}
	if plan.coarseLast >= plan.coarseFirst && snap == nil {
		// Multilevel flow as in the paper's experiments: BestChoice
		// clusters carry the coarse partitioning levels, then the
		// clustering is dissolved and the finest levels run on the flat
		// netlist so intra-cluster detail is recovered by FBP itself.
		// The coarse loop runs on a temporary clustered netlist and is not
		// checkpointed; snapshots start with the first flat level.
		cl := cluster.BestChoice(n, cluster.Options{Ratio: cfg.ClusterRatio})
		if err := globalLoop(ctx, cl.Clustered, decomp, blockages, cfg, qopt, dl, report, plan.coarseFirst, plan.coarseLast, true, nil); err != nil {
			return nil, err
		}
		cl.Project()
		freshQP = false
	}
	if err := globalLoop(ctx, n, decomp, blockages, cfg, qopt, dl, report, startLevel, levels, freshQP, ck); err != nil {
		return nil, err
	}
	finishGlobal()

	if ierr := corruptFault.Check(); ierr != nil {
		// Injected silent corruption: flip the sign bit of the first
		// movable cell's x — a wrong answer with no error attached, which
		// only certification can catch.
		for i := range n.Cells {
			if !n.Cells[i].Fixed {
				n.X[i] = math.Float64frombits(math.Float64bits(n.X[i]) ^ (1 << 63))
				break
			}
		}
	}
	if cfg.Certify != CertifyOff {
		// Position sanity before legalization: corruption must be caught
		// while the damage is still one coordinate, not after legalization
		// has spread it across a row.
		chk := &certify.Checker{Obs: cfg.Obs, Ctx: ctx, Level: -1}
		if cerr := chk.Positions(n); cerr != nil {
			return report, cerr
		}
	}

	if !cfg.SkipLegalization {
		if err := ctx.Err(); err != nil {
			return report, err
		}
		lsp := cfg.Obs.StartSpan("legalize")
		lstart := time.Now() //fbpvet:allow timing feeds Report.LegalTime only, never positions
		lr, lerr := legalize.Legalize(n, decomp, legalize.Options{Obs: cfg.Obs, Ctx: ctx, Degrade: dl})
		report.LegalTime = time.Since(lstart) //fbpvet:allow reporting-only duration
		report.LegalizeResult = lr
		lsp.End()
		if lerr != nil {
			return report, fmt.Errorf("placer: %w", lerr)
		}
		report.Overlaps = legalize.VerifyNoOverlaps(n)
		if cfg.DetailPasses > 0 {
			dsp := cfg.Obs.StartSpan("detail")
			dres, derr := detail.Optimize(n, mbs, detail.Options{Passes: cfg.DetailPasses})
			dsp.End()
			if derr != nil {
				return report, fmt.Errorf("placer: detail: %w", derr)
			}
			report.DetailResult = dres
			report.Overlaps = legalize.VerifyNoOverlaps(n)
		}
	}
	report.HPWL = n.HPWL()
	report.Violations = region.CheckLegal(n, mbs)
	if cfg.Certify != CertifyOff {
		chk := &certify.Checker{Obs: cfg.Obs, Ctx: ctx, Level: -1}
		if cerr := chk.Placement(n, mbs, certify.Reported{
			HPWL:          report.HPWL,
			Violations:    report.Violations,
			Overlaps:      report.Overlaps,
			Legalized:     !cfg.SkipLegalization,
			TargetDensity: cfg.TargetDensity,
		}); cerr != nil {
			return report, cerr
		}
		report.Certified = true
	}
	return report, nil
}

// PlannedLevels reports how many partitioning levels Place will run for n
// under cfg, without placing anything: the Report.Levels of the finished
// run. The placement daemon reports it as a job's planned level count
// from admission on (see internal/serve).
func PlannedLevels(n *netlist.Netlist, cfg Config) int {
	return planLevels(levelsFor(n, cfg), cfg).count()
}

// levelPlan is the level schedule of one placement: the levels
// coarseFirst through coarseLast on the clustered netlist (none when
// coarseLast < coarseFirst), then the levels flatFirst through finest on
// the flat netlist. Level lv partitions a 2^lv x 2^lv window grid.
type levelPlan struct {
	coarseFirst, coarseLast, flatFirst, finest int
}

// planLevels schedules the levels of a run whose finest level is finest.
// A fresh FBP run starts at firstLevel (at finest when that is coarser),
// a recursive one at level 1; with clustering, the clustered netlist
// takes every level but the two finest, and at least the first.
// KeepPlacement runs the finest level alone: FBP guarantees a feasible
// partitioning from any starting placement, which is exactly what
// recursive approaches lack.
func planLevels(finest int, cfg Config) levelPlan {
	first := min(firstLevel, finest)
	if cfg.Mode == ModeRecursive {
		first = 1
	}
	p := levelPlan{coarseFirst: first, coarseLast: first - 1, flatFirst: first, finest: finest}
	switch {
	case cfg.KeepPlacement:
		p.flatFirst = finest
	case cfg.ClusterRatio > 1:
		p.coarseLast = max(finest-2, first)
		p.flatFirst = min(p.coarseLast+1, finest)
	}
	return p
}

// count is the number of levels the plan runs.
func (p levelPlan) count() int {
	return max(p.coarseLast-p.coarseFirst+1, 0) + p.finest - p.flatFirst + 1
}

// levelsFor picks the finest refinement level: windows shrink until they
// are a few rows tall or hold only a handful of cells.
func levelsFor(n *netlist.Netlist, cfg Config) int {
	if cfg.MaxLevels > 0 {
		return cfg.MaxLevels
	}
	movable := len(n.MovableIDs())
	maxByCells := int(math.Ceil(math.Log2(math.Sqrt(float64(movable)/4)))) + 1
	dim := math.Min(n.Area.Width(), n.Area.Height())
	maxByDim := int(math.Floor(math.Log2(dim / (4 * n.RowHeight))))
	lv := maxByCells
	if maxByDim < lv {
		lv = maxByDim
	}
	if lv < 1 {
		lv = 1
	}
	if lv > 9 {
		lv = 9
	}
	return lv
}

// globalLoop runs QP + partitioning over grids of level startLevel
// through endLevel (2^lv x 2^lv windows), solving the top-level QPs with
// qopt, and counts each completed level in report.Levels. The net
// springs of n are assembled once, before the first level, into
// qopt.Workspace: every top-level solve of the loop shares them, and
// every realization-local QP solves a slice of them. The system is never
// checkpointed (a resumed loop assembles it anew). When freshQP is
// set, the loop starts from an unconstrained quadratic solve; otherwise it
// continues from the current placement. A non-nil ck snapshots the loop
// state after each completed level.
func globalLoop(ctx context.Context, n *netlist.Netlist, decomp *region.Decomposition, blockages geom.RectSet, cfg Config, qopt qp.Options, dl *degrade.Log, report *Report, startLevel, endLevel int, freshQP bool, ck *ckptState) error {
	sys := qp.NewSystem(n, qopt)
	if freshQP {
		qsp := cfg.Obs.StartSpan("qp.initial")
		err := sys.Solve(nil, qopt)
		qsp.End()
		if err != nil {
			return fmt.Errorf("placer: initial QP: %w", err)
		}
	}
	movable := n.MovableIDs()
	anchors := make([]qp.Anchor, len(movable))
	for lv := startLevel; lv <= endLevel; lv++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := levelFault.Check(); err != nil {
			return fmt.Errorf("placer: level %d: %w", lv, err)
		}
		k := 1 << lv
		lsp := cfg.Obs.StartSpan("level")
		lsp.Attr("grid", float64(k))
		g, gerr := grid.New(n.Area, k, k)
		if gerr != nil {
			lsp.End()
			return fmt.Errorf("placer: level %d: %w", lv, gerr)
		}
		wr := grid.BuildWindowRegions(g, decomp, blockages, cfg.TargetDensity)
		switch cfg.Mode {
		case ModeRecursive:
			relax, err := fbp.PartitionLocal(n, wr, cfg.fbpConfig(ctx, dl, sys, nil))
			report.Relaxations += relax
			if err != nil {
				lsp.End()
				return fmt.Errorf("placer: recursive partition level %d: %w", lv, err)
			}
		default:
			var checker *certify.Checker
			if cfg.Certify == CertifyEveryLevel {
				checker = &certify.Checker{Obs: cfg.Obs, Ctx: ctx, Level: lv}
			}
			// A failed level certificate leaves the loop wrapped in %w, so
			// run sees the *certify.Error and re-runs the whole placement.
			res, err := fbp.Partition(n, wr, cfg.fbpConfig(ctx, dl, sys, checker))
			if err == nil && checker != nil {
				err = checker.Partition(n, wr, res)
			}
			if err != nil {
				lsp.End()
				return fmt.Errorf("placer: FBP level %d: %w", lv, err)
			}
			report.FBPStats = append(report.FBPStats, res.Stats)
			lsp.Attr("collapse_share", res.Stats.CollapseShare)
		}
		// Anchored QP: connectivity pulls within the assigned regions.
		// Clique/star springs here — bound-to-bound weights (~1/distance)
		// would overpower the partition anchors and undo the spreading.
		for i, id := range movable {
			anchors[i] = qp.Anchor{Cell: id, Target: n.Pos(id), Weight: anchorWeight}
		}
		qsp := cfg.Obs.StartSpan("qp.anchored")
		err := sys.Solve(anchors, qopt)
		qsp.End()
		if err != nil {
			lsp.End()
			return fmt.Errorf("placer: level %d QP: %w", lv, err)
		}
		report.Levels++
		// The level's quality and its 1-based place in the run's schedule
		// (the daemon's level progress).
		if cfg.Obs != nil {
			hpwl := n.HPWL()
			cfg.Obs.Gauge("placer.level_hpwl", hpwl)
			lsp.Attr("hpwl", hpwl)
			lsp.Attr("index", float64(report.Levels))
		}
		lsp.End()
		if err := ck.boundary(n, lv, cfg.Preempt); err != nil {
			return err
		}
	}
	return nil
}
