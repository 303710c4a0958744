// The injection suite: arms every registered fault-injection point of the
// placement pipeline and asserts the robustness contract end to end —
// solver failures and caught corruption surface as structured errors
// naming the injection point, the solver or the failing window, and
// checkpoint write failures degrade (recorded in Report.Degradations);
// never a panic or a goroutine leak, and never at the cost of
// 1-vs-4-worker determinism.
//
// It lives in the faultsim package (external test) rather than next to the
// pipeline packages so that arming the process-global sites cannot race
// with unrelated package tests in the same binary.
package faultsim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/fbp"
	"fbplace/internal/flow"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
	"fbplace/internal/netlist"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/sparse"
)

// suiteChip generates the instance every case places: small enough to keep
// the suite fast, movebounded so the realization exercises the
// movebound-aware transportation path.
func suiteChip(t *testing.T) *gen.Instance {
	t.Helper()
	inst, err := gen.Chip(gen.ChipSpec{
		Name: "faultsim", NumCells: 1400, Seed: 17,
		Movebounds: []gen.MoveboundSpec{
			{Kind: region.Inclusive, CellFraction: 0.15, Density: 0.7, NestedIn: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// place arms the given schedules (re-arming resets hit counters, so the
// two worker-count runs of a case see identical hit numbering) and runs
// the full pipeline. A non-empty ckptDir enables per-level checkpointing,
// so the ckpt.* sites sit in the run's write path.
func place(t *testing.T, workers int, arm map[string]faultsim.Schedule, ckptDir string, certify bool) (*placer.Report, *netlist.Netlist, error) {
	t.Helper()
	for name, sched := range arm {
		if err := faultsim.Arm(name, sched); err != nil {
			t.Fatal(err)
		}
	}
	inst := suiteChip(t)
	cfg := placer.Config{Movebounds: inst.Movebounds, Workers: workers,
		Checkpoint: placer.Checkpoint{Dir: ckptDir}}
	if certify {
		cfg.Certify = placer.CertifyEveryLevel
	}
	rep, err := placer.Place(inst.N, cfg)
	return rep, inst.N, err
}

func stages(evs []degrade.Event) []string {
	var out []string
	for _, e := range evs {
		out = append(out, e.Stage+" -> "+e.Fallback)
	}
	return out
}

func injectedPoint(t *testing.T, err error) string {
	t.Helper()
	var ie *faultsim.InjectedError
	if !errors.As(err, &ie) {
		t.Fatalf("error does not carry an *InjectedError: %v", err)
	}
	if !errors.Is(err, faultsim.ErrInjected) {
		t.Fatalf("error does not wrap ErrInjected: %v", err)
	}
	return ie.Point
}

// suiteCases drives TestInjectionSuite and the coverage check. Every
// registered injection point must appear in at least one case's arm map.
var suiteCases = []struct {
	name string
	arm  map[string]faultsim.Schedule
	// degrades: the run must succeed and record exactly these fallbacks
	// (as "stage -> fallback" prefixes of the sorted event list). Empty
	// means the run must fail.
	degrades []string
	// failPoint, when set, requires the error to name this injection
	// point.
	failPoint string
	// wantErr, when set, must accept the run's error: the solver's or the
	// certificate's own error type.
	wantErr func(error) bool
	// unitPhase, when set, requires a *fbp.UnitError with this phase.
	unitPhase string
	// panics arms the primary point in panic mode (the failure must still
	// come back as an error, with the recovered stack attached).
	panics bool
	// ckpt runs the case with per-level checkpointing enabled, putting the
	// ckpt.* sites in the write path.
	ckpt bool
	// certify runs the case with every-level certification enabled — the
	// certify.corrupt site produces a wrong answer, not an error, so only
	// the certificate can see it.
	certify bool
}{
	{
		name:      "cg non-convergence is a structured error",
		arm:       map[string]faultsim.Schedule{"sparse.cg.noconverge": {}},
		failPoint: "sparse.cg.noconverge",
		wantErr:   func(err error) bool { return errors.Is(err, sparse.ErrNotConverged) },
	},
	{
		name: "network simplex stall is a structured error",
		arm:  map[string]faultsim.Schedule{"flow.ns.stall": {}},
		wantErr: func(err error) bool {
			var stalled *flow.ErrStalled
			return errors.As(err, &stalled)
		},
	},
	{
		name:      "condensed transport failure is a structured unit error",
		arm:       map[string]faultsim.Schedule{"transport.condensed.fail": {}},
		failPoint: "transport.condensed.fail",
		unitPhase: "realize",
	},
	{
		name:      "realization unit error carries window identity",
		arm:       map[string]faultsim.Schedule{"fbp.realize.unit": {}},
		failPoint: "fbp.realize.unit",
		unitPhase: "realize",
	},
	{
		name:      "realization unit panic is recovered into a unit error",
		arm:       map[string]faultsim.Schedule{"fbp.realize.unit": {Panic: true}},
		unitPhase: "realize",
		panics:    true,
	},
	{
		name:      "final-pass window failure is attributed to the final phase",
		arm:       map[string]faultsim.Schedule{"fbp.final.window": {}},
		failPoint: "fbp.final.window",
		unitPhase: "final",
	},
	{
		name:      "level failure aborts the global loop",
		arm:       map[string]faultsim.Schedule{"placer.level.fail": {}},
		failPoint: "placer.level.fail",
	},
	{
		// The first save is torn (ckpt.corrupt hit 0), every later save
		// fails outright (ckpt.write, After 1): the run must keep placing
		// and record each skipped write; torn-write *recovery* is proved by
		// the resume tests in internal/placer and internal/ckpt.
		name: "checkpoint write failures degrade, never abort",
		arm: map[string]faultsim.Schedule{
			"ckpt.corrupt": {Limit: 1},
			"ckpt.write":   {After: 1},
		},
		degrades: []string{"ckpt.write -> skipped"},
		ckpt:     true,
	},
	{
		// One silent sign-bit flip after the last realization pass: no
		// solver reports anything, the run "succeeds" wrong — the
		// certificate must catch it and fail the run.
		name:    "silent corruption fails the run with a certify error",
		arm:     map[string]faultsim.Schedule{"certify.corrupt": {Limit: 1}},
		certify: true,
		wantErr: func(err error) bool {
			var ce *certify.Error
			return errors.As(err, &ce)
		},
	},
}

func TestInjectionSuite(t *testing.T) {
	for _, tc := range suiteCases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultsim.Reset()
			leakcheck.Check(t)

			type outcome struct {
				rep *placer.Report
				n   *netlist.Netlist
				err error
			}
			runs := map[int]outcome{}
			for _, workers := range []int{1, 4} {
				dir := ""
				if tc.ckpt {
					dir = t.TempDir()
				}
				rep, n, err := place(t, workers, tc.arm, dir, tc.certify)
				runs[workers] = outcome{rep, n, err}
			}

			for workers, o := range runs {
				if len(tc.degrades) > 0 {
					if o.err != nil {
						t.Fatalf("workers=%d: degrade case failed: %v", workers, o.err)
					}
					got := stages(o.rep.Degradations)
					if len(got) == 0 {
						t.Fatalf("workers=%d: no degradation recorded", workers)
					}
					for _, want := range tc.degrades {
						found := false
						for _, g := range got {
							if g == want {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("workers=%d: degradations %v missing %q", workers, got, want)
						}
					}
					continue
				}
				if o.err == nil {
					t.Fatalf("workers=%d: failure case succeeded", workers)
				}
				if tc.panics {
					// Panic values are recovered into a UnitError whose
					// message preserves the injection identity, but the
					// error chain ends at the recovery boundary.
					if !strings.Contains(o.err.Error(), "panic:") ||
						!strings.Contains(o.err.Error(), "fbp.realize.unit") {
						t.Fatalf("workers=%d: recovered panic lost its identity: %v", workers, o.err)
					}
				} else if tc.failPoint != "" {
					if got := injectedPoint(t, o.err); got != tc.failPoint {
						t.Fatalf("workers=%d: failed at point %q, want %q", workers, got, tc.failPoint)
					}
				}
				if tc.wantErr != nil && !tc.wantErr(o.err) {
					t.Fatalf("workers=%d: error lacks the solver's own type: %v", workers, o.err)
				}
				if tc.unitPhase != "" {
					var ue *fbp.UnitError
					if !errors.As(o.err, &ue) {
						t.Fatalf("workers=%d: error is not a *fbp.UnitError: %v", workers, o.err)
					}
					if ue.Phase != tc.unitPhase {
						t.Fatalf("workers=%d: unit error phase %q, want %q", workers, ue.Phase, tc.unitPhase)
					}
					if tc.panics && len(ue.Stack) == 0 {
						t.Fatalf("workers=%d: recovered panic carries no stack", workers)
					}
				}
			}

			// Determinism under fault: both worker counts must agree on
			// the outcome class, and successful degraded runs must stay
			// bit-identical (positions, HPWL, and the sorted event list).
			r1, r4 := runs[1], runs[4]
			if (r1.err == nil) != (r4.err == nil) {
				t.Fatalf("outcome differs: 1 worker err=%v, 4 workers err=%v", r1.err, r4.err)
			}
			if r1.err != nil {
				return
			}
			if r1.rep.HPWL != r4.rep.HPWL {
				t.Fatalf("HPWL differs under fault: %.6f vs %.6f", r1.rep.HPWL, r4.rep.HPWL)
			}
			for i := range r1.n.Cells {
				id := netlist.CellID(i)
				if r1.n.Pos(id) != r4.n.Pos(id) {
					t.Fatalf("cell %d position differs under fault: %v vs %v",
						i, r1.n.Pos(id), r4.n.Pos(id))
				}
			}
			e1, e4 := r1.rep.Degradations, r4.rep.Degradations
			if len(e1) != len(e4) {
				t.Fatalf("degradation count differs: %d vs %d", len(e1), len(e4))
			}
			for i := range e1 {
				if e1[i] != e4[i] {
					t.Fatalf("degradation %d differs: %+v vs %+v", i, e1[i], e4[i])
				}
			}
		})
	}
}

// TestInjectionCoverage fails when a new injection point is registered
// without a suite case, so the robustness contract cannot silently erode.
func TestInjectionCoverage(t *testing.T) {
	armed := map[string]bool{}
	for _, tc := range suiteCases {
		for name := range tc.arm {
			armed[name] = true
		}
	}
	points := faultsim.Points()
	if len(points) == 0 {
		t.Fatal("no injection points registered")
	}
	pipeline := 0
	for _, info := range points {
		if strings.HasPrefix(info.Name, "selftest.") {
			continue // unit-test fixtures, not pipeline sites
		}
		pipeline++
		if !armed[info.Name] {
			t.Errorf("injection point %q (%s) has no suite case", info.Name, info.Doc)
		}
	}
	if pipeline < 8 {
		t.Fatalf("only %d pipeline injection points registered, want >= 8", pipeline)
	}
}

// TestDeadlineAlreadyExpired: an expired context must reject the run at
// the facade, promptly and with the context's error.
func TestDeadlineAlreadyExpired(t *testing.T) {
	leakcheck.Check(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	inst := suiteChip(t)
	start := time.Now()
	_, err := placer.PlaceCtx(ctx, inst.N, placer.Config{Movebounds: inst.Movebounds, Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("expired context took %v to reject", d)
	}
}

// TestDeadlineMidRun: a deadline that expires inside the solvers must
// stop the pipeline promptly (bounded polling cadence in CG, network
// simplex, SSP, transportation, realization waves, and the global loop).
func TestDeadlineMidRun(t *testing.T) {
	leakcheck.Check(t)
	// Time one whole run first and set the deadline to a third of it, so
	// it lands inside the solvers however fast the host places the chip.
	inst := suiteChip(t)
	start := time.Now()
	if _, err := placer.PlaceCtx(context.Background(), inst.N, placer.Config{Movebounds: inst.Movebounds, Workers: 4}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Since(start)/3)
	defer cancel()
	inst = suiteChip(t)
	start = time.Now()
	_, err := placer.PlaceCtx(ctx, inst.N, placer.Config{Movebounds: inst.Movebounds, Workers: 4})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("mid-run deadline took %v to unwind", d)
	}
}

// TestLeakFreeUnderCancellation sweeps cancellation into different phases
// of the run and verifies the parallel realization drains its workers on
// every exit path.
func TestLeakFreeUnderCancellation(t *testing.T) {
	leakcheck.Check(t)
	for _, budget := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 80 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		inst := suiteChip(t)
		_, err := placer.PlaceCtx(ctx, inst.N, placer.Config{Movebounds: inst.Movebounds, Workers: 4})
		cancel()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("budget %v: unexpected error class: %v", budget, err)
		}
	}
}
