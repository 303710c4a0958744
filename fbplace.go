// Package fbplace is a from-scratch Go implementation of flow-based
// partitioning and movebound-aware global placement, reproducing
// M. Struzyna, "Flow-based partitioning and position constraints in VLSI
// placement", DATE 2011 (the BonnPlace FBP global placer).
//
// The package is a facade over the internal engine:
//
//   - Netlists (cells, nets, pins, HPWL) and rectangle geometry.
//   - Movebounds: non-convex, possibly overlapping position constraints,
//     inclusive or exclusive, with region decomposition and a polynomial
//     feasibility check (paper Theorems 1-2).
//   - Flow-based partitioning: a global MinCostFlow model linear in the
//     number of windows plus parallel local realization (paper §IV).
//   - A complete global placer (quadratic placement + FBP over refining
//     grids + Abacus-style legalization), a force-directed RQL-style
//     baseline, and a recursive-partitioning ablation baseline.
//   - A synthetic testbed generator mirroring the paper's instances.
//
// Quick start:
//
//	inst, _ := fbplace.Generate(fbplace.ChipSpec{Name: "demo", NumCells: 5000, Seed: 1})
//	rep, err := fbplace.Place(inst.N, fbplace.Config{Movebounds: inst.Movebounds})
//	if err != nil { ... }
//	fmt.Println("HPWL:", rep.HPWL)
package fbplace

import (
	"context"
	"io"

	"fbplace/internal/certify"
	"fbplace/internal/congest"
	"fbplace/internal/detail"
	"fbplace/internal/fbp"
	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
	"fbplace/internal/plot"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// Geometry.
type (
	// Point is a location on the chip plane.
	Point = geom.Point
	// Rect is an axis-parallel rectangle.
	Rect = geom.Rect
	// RectSet is a finite set of rectangles (movebound areas are
	// rectangle sets, so they may be non-convex).
	RectSet = geom.RectSet
)

// Netlist model.
type (
	// Netlist is the circuit: cells, nets, and the current placement.
	Netlist = netlist.Netlist
	// Cell is a rectangular circuit element.
	Cell = netlist.Cell
	// CellID identifies a cell.
	CellID = netlist.CellID
	// Net is a weighted set of pins.
	Net = netlist.Net
	// Pin is a connection point (cell pin or fixed pad).
	Pin = netlist.Pin
)

// NoMovebound marks cells without a position constraint.
const NoMovebound = netlist.NoMovebound

// NewNetlist returns an empty netlist over the chip area.
func NewNetlist(area Rect, rowHeight float64) *Netlist {
	return netlist.New(area, rowHeight)
}

// Movebounds (paper Definition 1).
type (
	// Movebound is a named position constraint.
	Movebound = region.Movebound
	// MoveboundKind distinguishes inclusive from exclusive movebounds.
	MoveboundKind = region.Kind
)

// Movebound kinds.
const (
	// Inclusive movebounds confine their own cells only.
	Inclusive = region.Inclusive
	// Exclusive movebounds additionally block all other cells.
	Exclusive = region.Exclusive
)

// Placer configuration and results.
type (
	// Config tunes the placer (movebounds, density, clustering, mode).
	Config = placer.Config
	// Report summarizes a placement run.
	Report = placer.Report
	// Mode selects the partitioning engine.
	Mode = placer.Mode
)

// Partitioning engine modes.
const (
	// ModeFBP is the paper's flow-based partitioning (default).
	ModeFBP = placer.ModeFBP
	// ModeRecursive is the classical recursive-partitioning baseline.
	ModeRecursive = placer.ModeRecursive
)

// CertifyMode selects how much of a run is independently certified (set
// Config.Certify): nothing, the final placement, or every FBP level. A
// failed certificate ends the run with a *CertifyError.
type CertifyMode = placer.CertifyMode

// Certification modes.
const (
	// CertifyOff disables certification (default).
	CertifyOff = placer.CertifyOff
	// CertifyFinal certifies the final placement against its report.
	CertifyFinal = placer.CertifyFinal
	// CertifyEveryLevel additionally certifies flow optimality, every
	// transportation and the partition invariants at each level.
	CertifyEveryLevel = placer.CertifyEveryLevel
)

// CertifyError reports a failed certificate (layer, level, invariant and
// a concrete witness). Receiving one means the run produced a result that
// failed independent verification.
type CertifyError = certify.Error

// Place runs global placement and legalization on the netlist in place.
// It returns an error when the instance provably admits no placement
// respecting the movebounds (Theorem 2) — movebounds are never silently
// violated.
func Place(n *Netlist, cfg Config) (*Report, error) {
	return placer.Place(n, cfg)
}

// PlaceCtx is Place with cancellation: a canceled or expired context
// aborts the run — within one outer iteration even deep inside the
// CG / network-simplex / transportation solvers — and returns the
// context's error.
func PlaceCtx(ctx context.Context, n *Netlist, cfg Config) (*Report, error) {
	return placer.PlaceCtx(ctx, n, cfg)
}

// Checkpoint configures crash-safe snapshotting of the global placement
// loop (set Config.Checkpoint): after each level a versioned, checksummed
// snapshot is written atomically into Dir, and Resume continues from it.
type Checkpoint = placer.Checkpoint

// ResumeError explains why Resume could not use a checkpoint directory
// (no loadable snapshot, or a netlist/config mismatch).
type ResumeError = placer.ResumeError

// NumericError reports a NaN or infinite input value (net weight, pin
// offset, pad or cell position) rejected at placer entry.
type NumericError = placer.NumericError

// Resume continues an interrupted PlaceCtx run from the newest loadable
// snapshot in dir. The netlist and cfg must match the original run
// (fingerprints are checked); the continuation is bit-identical to an
// uninterrupted run with the same inputs.
func Resume(ctx context.Context, n *Netlist, dir string, cfg Config) (*Report, error) {
	return placer.Resume(ctx, n, dir, cfg)
}

// ErrPreempted matches (with errors.Is) the *PreemptedError a preempted
// run returns: the scheduler's Config.Preempt hook asked the global loop
// to stop at a level boundary, and a durable snapshot was written first —
// Resume continues the run bit-identically. See internal/serve for the
// placement service built on this.
var ErrPreempted = placer.ErrPreempted

// PreemptedError reports where a run stopped in response to
// Config.Preempt (always after its snapshot was durably written).
type PreemptedError = placer.PreemptedError

// FeasibilityReport is the result of CheckFeasibility.
type FeasibilityReport = region.FeasibilityReport

// CheckFeasibility decides in polynomial time whether a (fractional)
// placement respecting the movebounds exists (paper Theorem 2), at the
// given target density.
func CheckFeasibility(n *Netlist, movebounds []Movebound, targetDensity float64) (FeasibilityReport, error) {
	if err := n.Validate(len(movebounds)); err != nil {
		return FeasibilityReport{}, err
	}
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return FeasibilityReport{}, err
	}
	d := region.Decompose(n.Area, norm)
	caps := d.Capacities(n.FixedRects(), targetDensity)
	return region.CheckFeasibility(n, d, caps), nil
}

// CountViolations returns the number of movable cells violating the
// movebounds under the current placement (Definition 1).
func CountViolations(n *Netlist, movebounds []Movebound) (int, error) {
	if err := n.Validate(len(movebounds)); err != nil {
		return 0, err
	}
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return 0, err
	}
	return region.CheckLegal(n, norm), nil
}

// CountOverlaps returns the number of overlapping cell pairs (0 for a
// legalized placement).
func CountOverlaps(n *Netlist) int { return legalize.VerifyNoOverlaps(n) }

// Partitioning exposes one flow-based partitioning step on a k x k window
// grid (paper §IV) for callers that drive their own placement loop.
type (
	// PartitionResult maps cells to window-regions with flow statistics.
	PartitionResult = fbp.Result
	// PartitionStats are instance sizes and phase runtimes (Table I).
	PartitionStats = fbp.Stats
)

// Partition runs one FBP step: it builds the MinCostFlow model for the
// current placement on a k x k grid, solves it, and realizes the flow,
// moving cells into their assigned regions.
func Partition(n *Netlist, movebounds []Movebound, k int, targetDensity float64) (*PartitionResult, error) {
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return nil, err
	}
	if targetDensity == 0 {
		targetDensity = 0.97
	}
	d := region.Decompose(n.Area, norm)
	g, err := grid.New(n.Area, k, k)
	if err != nil {
		return nil, err
	}
	wr := grid.BuildWindowRegions(g, d, n.FixedRects(), targetDensity)
	return fbp.Partition(n, wr, fbp.DefaultConfig())
}

// ExternalFlow describes one flow-carrying external edge of the solved
// MinCostFlow model: cell area of one movebound class that must move
// between two adjacent windows (paper Figure 3/4).
type ExternalFlow struct {
	// Class names the movebound ("unbounded" for unconstrained cells).
	Class string
	// FromWindow and ToWindow are (ix, iy) window coordinates.
	FromWindow, ToWindow [2]int
	// FromDir/ToDir are the compass transit directions ("N","E","S","W").
	FromDir, ToDir string
	// Amount is the cell area shipped.
	Amount float64
}

// FlowModel builds and solves the FBP MinCostFlow model for the current
// placement on a k x k grid without realizing it, returning instance
// statistics and the flow-carrying external edges. Useful for inspecting
// the global movement plan (cmd/fbplace -dump-flow).
func FlowModel(n *Netlist, movebounds []Movebound, k int, targetDensity float64) (PartitionStats, []ExternalFlow, error) {
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return PartitionStats{}, nil, err
	}
	if targetDensity == 0 {
		targetDensity = 0.97
	}
	d := region.Decompose(n.Area, norm)
	g, err := grid.New(n.Area, k, k)
	if err != nil {
		return PartitionStats{}, nil, err
	}
	wr := grid.BuildWindowRegions(g, d, n.FixedRects(), targetDensity)
	model := fbp.BuildModel(n, wr, g.AssignCells(n))
	if err := model.Solve(); err != nil {
		return model.Stats, nil, err
	}
	var out []ExternalFlow
	for _, e := range model.Externals {
		if e.Flow <= 1e-9 {
			continue
		}
		name := "unbounded"
		if e.Class < len(norm) {
			name = norm[e.Class].Name
		}
		fx, fy := g.Coords(e.From)
		tx, ty := g.Coords(e.To)
		out = append(out, ExternalFlow{
			Class:      name,
			FromWindow: [2]int{fx, fy}, ToWindow: [2]int{tx, ty},
			FromDir: fbp.DirName(e.FromDir), ToDir: fbp.DirName(e.ToDir),
			Amount: e.Flow,
		})
	}
	return model.Stats, out, nil
}

// Observability (see internal/obs). Set Config.Obs to a Recorder to
// collect hierarchical phase spans, counters (CG iterations, network
// simplex pivots, transport solves, ...) and gauges from a placement run.
// A nil *Recorder disables recording at the cost of a nil check.
type (
	// Recorder collects spans, counters and gauges for one run.
	Recorder = obs.Recorder
	// TraceSink receives recorder events as they are produced.
	TraceSink = obs.Sink
	// TraceEvent is one exported trace event (span, counter or gauge).
	TraceEvent = obs.Event
	// JSONTraceSink writes one JSON trace event per line.
	JSONTraceSink = obs.JSONSink
)

// NewRecorder returns a recorder streaming events to sink. A nil sink
// aggregates in memory only (for WriteSummary / Counters).
func NewRecorder(sink TraceSink) *Recorder { return obs.New(sink) }

// NewJSONTraceSink returns a sink writing a JSON-lines trace to w.
func NewJSONTraceSink(w io.Writer) *JSONTraceSink { return obs.NewJSONSink(w) }

// ReadTrace parses a JSON-lines trace produced by a JSONTraceSink.
func ReadTrace(r io.Reader) ([]TraceEvent, error) { return obs.ReadTrace(r) }

// Baseline placers.
type (
	// BaselineConfig tunes the RQL-style force-directed baseline: target
	// density, iteration cap, spreading style and movebounds. The bin
	// grid, stopping overflow and anchor weights are fixed.
	BaselineConfig = rql.Config
	// BaselineReport summarizes a baseline run.
	BaselineReport = rql.Report
)

// Baseline spreading styles.
const (
	// StyleRQL is the RQL-like fixed-point spreading.
	StyleRQL = rql.StyleRQL
	// StyleKraftwerk is the Kraftwerk2-like move-based spreading.
	StyleKraftwerk = rql.StyleKraftwerk
)

// PlaceBaseline runs the force-directed baseline (global placement only;
// call Legalize afterwards for a legal placement).
func PlaceBaseline(n *Netlist, cfg BaselineConfig) (BaselineReport, error) {
	return rql.Place(n, cfg)
}

// Legalize snaps all movable cells into rows without overlaps, region by
// region so that the movebounds are respected (paper §III). With nil
// movebounds the whole chip is one region and every cell is legalized
// movebound-blind.
func Legalize(n *Netlist, movebounds []Movebound) (legalize.Result, error) {
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return legalize.Result{}, err
	}
	return legalize.Legalize(n, region.Decompose(n.Area, norm), legalize.Options{})
}

// Congestion estimation (RUDY).
type (
	// CongestionMap is a per-bin RUDY congestion estimate.
	CongestionMap = congest.Map
	// Hotspot is one congested bin.
	Hotspot = congest.Hotspot
)

// EstimateCongestion builds the RUDY congestion map of the current
// placement (nx, ny = 0 for automatic bin sizing).
func EstimateCongestion(n *Netlist, nx, ny int) *CongestionMap {
	return congest.Estimate(n, nx, ny)
}

// DetailOptions tunes post-legalization detailed placement: the number of
// sweeps. Each sweep reorders windows of three adjacent same-row cells,
// then swaps equal-width cells.
type DetailOptions = detail.Options

// DetailResult reports detailed-placement statistics.
type DetailResult = detail.Result

// OptimizeDetailed runs legality-preserving detailed placement on a
// legalized netlist (window reordering + equal-width swaps), respecting
// the movebounds.
func OptimizeDetailed(n *Netlist, movebounds []Movebound, opt DetailOptions) (DetailResult, error) {
	norm, err := region.Normalize(n.Area, movebounds)
	if err != nil {
		return DetailResult{}, err
	}
	return detail.Optimize(n, norm, opt)
}

// RenderSVG writes an SVG rendering of the placement (cells colored by
// movebound, exclusive areas dashed) for visual inspection.
func RenderSVG(w io.Writer, n *Netlist, movebounds []Movebound, title string) error {
	return plot.SVG(w, n, movebounds, plot.Options{Title: title})
}

// Testbed generation.
type (
	// ChipSpec describes a synthetic chip.
	ChipSpec = gen.ChipSpec
	// MoveboundSpec describes one generated movebound.
	MoveboundSpec = gen.MoveboundSpec
	// Instance is a generated chip with its movebounds.
	Instance = gen.Instance
)

// Generate synthesizes a chip instance from a spec (deterministic per
// seed).
func Generate(spec ChipSpec) (*Instance, error) { return gen.Chip(spec) }
