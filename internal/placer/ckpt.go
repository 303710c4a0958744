package placer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"fbplace/internal/ckpt"
	"fbplace/internal/degrade"
	"fbplace/internal/fbp"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
)

// Checkpoint configures crash-safe snapshots of the global loop (see
// internal/ckpt). The loop is RNG-free — anchors are recomputed from
// positions each level — so a snapshot at a level boundary captures the
// complete continuation state, and a resumed run is bit-identical to an
// uninterrupted one. Every completed flat level is snapshotted.
type Checkpoint struct {
	// Dir enables checkpointing: after each completed level on the flat
	// netlist a snapshot generation is written here (the clustered coarse
	// levels of multilevel runs are not snapshotted — their positions live
	// on a temporary netlist that resume could not rebuild cheaply).
	Dir string
}

// ErrPreempted is the sentinel wrapped by every *PreemptedError, so
// schedulers can distinguish preemption from failure with errors.Is.
var ErrPreempted = errors.New("placer: preempted at level boundary")

// PreemptedError reports that a run stopped at a level boundary because
// Config.Preempt asked it to, after durably snapshotting the completed
// level. Resume from the same checkpoint directory continues the run
// bit-identically, possibly in another process or on a different worker
// count (Workers is excluded from the resume fingerprint by design).
type PreemptedError struct {
	// Level is the last completed (and snapshotted) level, Levels the
	// run's finest one; level lv partitions a 2^lv x 2^lv window grid.
	Level, Levels int
}

func (e *PreemptedError) Error() string {
	return fmt.Sprintf("placer: preempted after level %d/%d (snapshot written)", e.Level, e.Levels)
}

// Unwrap makes errors.Is(err, ErrPreempted) true.
func (e *PreemptedError) Unwrap() error { return ErrPreempted }

// ResumeError reports why a Resume refused or failed to continue from a
// checkpoint directory. Fingerprint refusals are deliberate: restoring
// positions onto a different circuit, or continuing under a different
// configuration, would silently produce a placement neither run describes.
type ResumeError struct {
	// Dir is the checkpoint directory, Reason what went wrong.
	Dir, Reason string
	// Err is the underlying error, when one exists.
	Err error
}

func (e *ResumeError) Error() string {
	if e.Err != nil {
		return "placer: resume from " + e.Dir + ": " + e.Reason + ": " + e.Err.Error()
	}
	return "placer: resume from " + e.Dir + ": " + e.Reason
}

func (e *ResumeError) Unwrap() error { return e.Err }

// NumericError reports a non-finite (NaN or infinite) numeric input. The
// placer validates these once at entry: CG never diverges loudly on a NaN
// — it propagates it into every position — so the poisoned value must be
// rejected before any solve.
type NumericError struct {
	// Kind names the poisoned quantity: "net-weight", "pin-offset",
	// "pad-position", or "cell-position".
	Kind string
	// Net and Pin locate net-scoped kinds (pin-offset, pad-position);
	// Cell locates cell-scoped ones. Unused indices are -1.
	Net, Pin, Cell int
	// Value is the offending number.
	Value float64
}

func (e *NumericError) Error() string {
	switch e.Kind {
	case "net-weight":
		return fmt.Sprintf("placer: net %d has non-finite weight %g", e.Net, e.Value)
	case "pin-offset":
		return fmt.Sprintf("placer: net %d pin %d has non-finite offset %g", e.Net, e.Pin, e.Value)
	case "pad-position":
		return fmt.Sprintf("placer: net %d pad pin %d has non-finite position %g", e.Net, e.Pin, e.Value)
	default:
		return fmt.Sprintf("placer: cell %d has non-finite position %g", e.Cell, e.Value)
	}
}

// validateNumerics scans net weights, pin offsets, pad positions and cell
// positions for NaN/Inf once, before any solver runs. O(pins + cells).
func validateNumerics(n *netlist.Netlist) error {
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if !finite(net.Weight) {
			return &NumericError{Kind: "net-weight", Net: ni, Pin: -1, Cell: -1, Value: net.Weight}
		}
		for pi, p := range net.Pins {
			kind := "pin-offset"
			if p.IsPad() {
				kind = "pad-position"
			}
			if !finite(p.Offset.X) {
				return &NumericError{Kind: kind, Net: ni, Pin: pi, Cell: -1, Value: p.Offset.X}
			}
			if !finite(p.Offset.Y) {
				return &NumericError{Kind: kind, Net: ni, Pin: pi, Cell: -1, Value: p.Offset.Y}
			}
		}
	}
	for ci := range n.Cells {
		if !finite(n.X[ci]) {
			return &NumericError{Kind: "cell-position", Net: -1, Pin: -1, Cell: ci, Value: n.X[ci]}
		}
		if !finite(n.Y[ci]) {
			return &NumericError{Kind: "cell-position", Net: -1, Pin: -1, Cell: ci, Value: n.Y[ci]}
		}
	}
	return nil
}

// ConfigFingerprint is the exported form of configFingerprint for callers
// that key caches on the placement trajectory (internal/serve): it first
// applies the documented defaults, so a zero TargetDensity and an explicit
// 0.97 hash identically — exactly as Resume sees them.
func ConfigFingerprint(cfg *Config) uint64 {
	c := *cfg
	c.fill()
	return configFingerprint(&c)
}

// trajectoryVersion names the placement trajectory the code's fixed
// recipe produces. Bump it with every change to a constant of the recipe
// that moves placements.
//
// Version 1: a level-independent anchorWeight and the first level at
// firstLevel (4x4) rather than 2x2.
const trajectoryVersion = 1

// configFingerprint hashes every Config field that influences the
// placement trajectory, so Resume can refuse to continue a run under a
// different configuration. Workers is deliberately excluded — the placer
// guarantees bit-identical results across worker counts — as are Obs,
// Checkpoint itself, Preempt (a preempted-and-resumed run reproduces the
// uninterrupted one), Certify (checks observe the trajectory and the
// certify re-run repeats it; neither steers it, and the re-run never
// checkpoints). The constants the run reads (anchorWeight, firstLevel,
// the qp model constants, legalization's full row search) are not hashed
// one by one: a change to one of them that moves placements bumps
// trajectoryVersion instead, so snapshots and cached results of the old
// trajectory are refused.
func configFingerprint(cfg *Config) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		// fnv's Write never fails.
		_, _ = h.Write(buf[:])
	}
	wf := func(v float64) { w(math.Float64bits(v)) }
	wb := func(v bool) {
		if v {
			w(1)
		} else {
			w(0)
		}
	}
	ws := func(s string) {
		w(uint64(len(s)))
		_, _ = h.Write([]byte(s))
	}
	w(trajectoryVersion)
	w(uint64(cfg.Mode))
	wf(cfg.TargetDensity)
	wf(cfg.ClusterRatio)
	w(uint64(cfg.MaxLevels))
	wb(cfg.NoLocalQP)
	wb(cfg.SkipLegalization)
	wb(cfg.KeepPlacement)
	w(uint64(cfg.DetailPasses))
	w(uint64(len(cfg.Movebounds)))
	for i := range cfg.Movebounds {
		mb := &cfg.Movebounds[i]
		ws(mb.Name)
		w(uint64(mb.Kind))
		w(uint64(len(mb.Area)))
		for _, r := range mb.Area {
			wf(r.Xlo)
			wf(r.Ylo)
			wf(r.Xhi)
			wf(r.Yhi)
		}
	}
	return h.Sum64()
}

// snapshot is the global-loop state captured at a level boundary: enough
// to re-enter the loop at the next level and reproduce the uninterrupted
// run bit for bit. The loop itself is RNG-free — the anchors of level
// lv+1 are recomputed from the restored positions — so positions plus the
// level counter fully determine the continuation. internal/ckpt stores it
// with encoding/gob, so every exported field, including each field of
// fbp.Stats and degrade.Event, round-trips without a codec to keep in
// sync.
type snapshot struct {
	// NetlistFP is the structural fingerprint of the netlist the snapshot
	// belongs to (ckpt.Fingerprint); ConfigFP the placer's config hash.
	// Resume refuses snapshots whose fingerprints do not match.
	NetlistFP, ConfigFP uint64
	// Level is the last completed partitioning level, Levels the run's
	// finest one (level lv partitions a 2^lv x 2^lv window grid).
	Level, Levels int
	// X, Y are the cell center positions after Level's anchored QP,
	// restored bit-exact.
	X, Y []float64
	// QPSolves and CGIters are the accumulated top-level QP effort.
	QPSolves, CGIters int64
	// Relaxations accumulates the recursive baseline's capacity
	// relaxations (0 in FBP mode).
	Relaxations int
	// GlobalElapsed is the wall clock spent in the global loop up to the
	// snapshot, so a resumed run reports an honest total.
	GlobalElapsed time.Duration
	// FBPStats are the per-level flow statistics of the completed levels.
	FBPStats []fbp.Stats
	// Degradations are the solver fallbacks recorded up to the snapshot;
	// a resumed run restores them so Report.Degradations covers the whole
	// logical run, not just the post-resume tail.
	Degradations []degrade.Event
}

// ckptState carries everything the global loop needs to emit a snapshot
// at a level boundary. A nil *ckptState disables checkpointing (the
// clustered coarse loop always passes nil).
type ckptState struct {
	store        *ckpt.Store
	netFP, cfgFP uint64
	levels       int
	qpStats      *qp.SolveStats
	report       *Report
	dl           *degrade.Log
	rec          *obs.Recorder
	// start is when this process entered the global loop; base the wall
	// clock a resumed snapshot already carried.
	start time.Time
	base  time.Duration
}

// boundary is the per-level checkpoint/preemption point: it snapshots the
// loop state after level lv completed and honors a pending preemption
// request. A failed save is recorded as a degradation and the run
// continues: checkpointing must never turn a healthy placement into a
// failed one. Preemption stops the run with a
// *PreemptedError only once the level's snapshot is durably on disk —
// when the forced save fails, the preemption is skipped (recorded as
// "preempt" -> "kept-running") and the victim keeps running.
func (ck *ckptState) boundary(n *netlist.Netlist, lv int, preempt func() bool) error {
	if ck == nil {
		return nil
	}
	want := preempt != nil && preempt()
	if err := ck.save(n, lv); err != nil {
		ck.dl.Add("ckpt.write", "skipped", err.Error())
		if want {
			ck.dl.Add("preempt", "kept-running", err.Error())
		}
		return nil
	}
	if want {
		return &PreemptedError{Level: lv, Levels: ck.levels}
	}
	return nil
}

// save writes one snapshot generation for the state after level lv.
func (ck *ckptState) save(n *netlist.Netlist, lv int) error {
	sp := ck.rec.StartSpan("ckpt.write")
	defer sp.End()
	qpSolves, qpIters := ck.qpStats.Snapshot()
	snap := &snapshot{
		NetlistFP:     ck.netFP,
		ConfigFP:      ck.cfgFP,
		Level:         lv,
		Levels:        ck.levels,
		X:             append([]float64(nil), n.X...),
		Y:             append([]float64(nil), n.Y...),
		QPSolves:      qpSolves,
		CGIters:       qpIters,
		Relaxations:   ck.report.Relaxations,
		GlobalElapsed: ck.base + time.Since(ck.start), //fbpvet:allow elapsed wall time is report metadata
		FBPStats:      append([]fbp.Stats(nil), ck.report.FBPStats...),
		Degradations:  ck.dl.Events(),
	}
	return ck.store.Save(snap)
}

// loadResume loads the newest valid snapshot from dir, refuses it unless
// its fingerprints match this run, and applies it: positions, top-level
// QP counters, per-level stats and pre-crash degradations. Returns the
// snapshot so the caller can pick the restart level.
func loadResume(n *netlist.Netlist, dir string, netFP, cfgFP uint64, levels int, dl *degrade.Log, qpStats *qp.SolveStats, report *Report, rec *obs.Recorder) (*snapshot, error) {
	sp := rec.StartSpan("ckpt.restore")
	defer sp.End()
	store := &ckpt.Store{Dir: dir, Obs: rec}
	snap := &snapshot{}
	info, err := store.Load(snap)
	if err != nil {
		return nil, &ResumeError{Dir: dir, Reason: "no loadable checkpoint", Err: err}
	}
	if snap.NetlistFP != netFP {
		return nil, &ResumeError{Dir: dir, Reason: fmt.Sprintf(
			"netlist fingerprint mismatch: snapshot %016x, instance %016x (different circuit)", snap.NetlistFP, netFP)}
	}
	if snap.ConfigFP != cfgFP {
		return nil, &ResumeError{Dir: dir, Reason: fmt.Sprintf(
			"config fingerprint mismatch: snapshot %016x, run %016x (placement trajectory would diverge)", snap.ConfigFP, cfgFP)}
	}
	if snap.Levels != levels {
		return nil, &ResumeError{Dir: dir, Reason: fmt.Sprintf(
			"level plan mismatch: snapshot planned %d levels, run plans %d", snap.Levels, levels)}
	}
	if snap.Level < 1 || snap.Level > levels {
		return nil, &ResumeError{Dir: dir, Reason: fmt.Sprintf(
			"snapshot level %d outside [1, %d]", snap.Level, levels)}
	}
	if len(snap.X) != n.NumCells() || len(snap.Y) != n.NumCells() {
		return nil, &ResumeError{Dir: dir, Reason: fmt.Sprintf(
			"snapshot carries %d cells, instance has %d", len(snap.X), n.NumCells())}
	}
	if info.FellBack {
		dl.Add("ckpt.fallback", "previous-generation", info.Detail)
	}
	copy(n.X, snap.X)
	copy(n.Y, snap.Y)
	qpStats.Restore(snap.QPSolves, snap.CGIters)
	report.FBPStats = append(report.FBPStats[:0], snap.FBPStats...)
	report.Relaxations = snap.Relaxations
	dl.Restore(snap.Degradations)
	return snap, nil
}
