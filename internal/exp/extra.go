package exp

import (
	"fmt"
	"io"
	"time"

	"fbplace/internal/fbp"
	"fbplace/internal/gen"
	"fbplace/internal/grid"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// SpeedupRow is one worker count of the parallel realization experiment
// (§IV.B: "good parallel speed-ups (up to 7.9 with 8 CPUs) on large
// grids").
type SpeedupRow struct {
	Workers     int
	RealizeTime time.Duration
	Speedup     float64
}

// Speedup measures the realization wall-clock with 1..maxWorkers workers
// on a large-grid instance. Results are deterministic across worker
// counts (verified by the fbp tests); only the wall-clock changes.
func Speedup(scale float64, maxWorkers int) ([]SpeedupRow, error) {
	spec := gen.ErhardLike(scale)
	inst, err := gen.Chip(spec)
	if err != nil {
		return nil, err
	}
	norm, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		return nil, err
	}
	d := region.Decompose(inst.N.Area, norm)
	base := inst.N.Clone()
	if _, err := rql.PlaceCtx(harnessCtx(), base, rql.Config{MaxIters: 4, Movebounds: norm}); err != nil {
		return nil, err
	}
	levels := gen.GridLevels(spec.NumCells)
	k := levels[len(levels)-1]
	var rows []SpeedupRow
	var t1 time.Duration
	for workers := 1; workers <= maxWorkers; workers *= 2 {
		n := base.Clone()
		g, err := grid.New(n.Area, k, k)
		if err != nil {
			return rows, err
		}
		wr := grid.BuildWindowRegions(g, d, n.FixedRects(), 0.97)
		cfg := fbp.DefaultConfig()
		cfg.Workers = workers
		cfg.Ctx = harnessCtx()
		res, err := fbp.Partition(n, wr, cfg)
		if err != nil {
			return rows, err
		}
		if workers == 1 {
			t1 = res.Stats.RealizeTime
		}
		rows = append(rows, SpeedupRow{
			Workers:     workers,
			RealizeTime: res.Stats.RealizeTime,
			Speedup:     float64(t1) / float64(res.Stats.RealizeTime),
		})
	}
	return rows, nil
}

// PrintSpeedup renders the parallel realization speedups.
func PrintSpeedup(w io.Writer, rows []SpeedupRow) {
	pr := &printer{w: w}
	pr.printf("Parallel realization speedup (§IV.B)\n")
	pr.printf("%8s %14s %8s\n", "workers", "realization", "speedup")
	for _, r := range rows {
		pr.printf("%8d %14s %7.2fx\n", r.Workers, fmtDur(r.RealizeTime), r.Speedup)
	}
}

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Config      string
	HPWL        float64
	Time        time.Duration
	Violations  int
	Relaxations int
}

// AblationRecursive compares flow-based partitioning against the
// classical recursive partitioning baseline on a movebounded chip —
// the §IV motivation ("recursive partitioning approaches have several
// drawbacks ... partitioning decisions are taken locally").
func AblationRecursive(scale float64) ([]AblationRow, error) {
	spec := gen.TableIIIChips(scale, region.Inclusive)[0] // Rabe-like
	spec.NumCells *= 2
	inst, err := gen.Chip(spec)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, mode := range []struct {
		name string
		mode placer.Mode
	}{{"FBP", placer.ModeFBP}, {"recursive", placer.ModeRecursive}} {
		n := inst.N.Clone()
		start := time.Now()
		rep, err := runPlace(n, placer.Config{Mode: mode.mode, Movebounds: inst.Movebounds})
		if err != nil {
			return rows, fmt.Errorf("%s: %w", mode.name, err)
		}
		rows = append(rows, AblationRow{
			Config: mode.name, HPWL: rep.HPWL, Time: time.Since(start),
			Violations: rep.Violations, Relaxations: rep.Relaxations,
		})
	}
	return rows, nil
}

// AblationLocalQP measures the effect of the realization-local QP
// (§IV.B: "a local QP ... will be computed first to obtain more
// connectivity information").
func AblationLocalQP(scale float64) ([]AblationRow, error) {
	specs := gen.TableIIChips(scale, 3)
	var rows []AblationRow
	for _, cfg := range []struct {
		name    string
		noLocal bool
	}{{"with local QP", false}, {"without local QP", true}} {
		var hpwl float64
		var total time.Duration
		for _, spec := range specs {
			inst, err := gen.Chip(spec)
			if err != nil {
				return rows, err
			}
			start := time.Now()
			rep, err := runPlace(inst.N, placer.Config{NoLocalQP: cfg.noLocal})
			if err != nil {
				return rows, fmt.Errorf("%s/%s: %w", cfg.name, spec.Name, err)
			}
			hpwl += rep.HPWL
			total += time.Since(start)
		}
		rows = append(rows, AblationRow{Config: cfg.name, HPWL: hpwl, Time: total})
	}
	return rows, nil
}

// PrintAblation renders an ablation result.
func PrintAblation(w io.Writer, title string, rows []AblationRow, withViol bool) {
	pr := &printer{w: w}
	pr.printf("%s\n", title)
	for _, r := range rows {
		if withViol {
			pr.printf("  %-18s HPWL %12.0f  time %10s  viol %4d  capacity relaxations %d\n",
				r.Config, r.HPWL, fmtDur(r.Time), r.Violations, r.Relaxations)
		} else {
			pr.printf("  %-18s HPWL %12.0f  time %10s\n", r.Config, r.HPWL, fmtDur(r.Time))
		}
	}
}

// FeasibilityBench measures the Theorem-2 feasibility check on a large
// movebounded instance (it must be fast: O(|C| + |M|^2 |R|)).
func FeasibilityBench(scale float64) (time.Duration, bool, error) {
	spec := gen.ErhardLike(scale)
	inst, err := gen.Chip(spec)
	if err != nil {
		return 0, false, err
	}
	norm, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		return 0, false, err
	}
	d := region.Decompose(inst.N.Area, norm)
	caps := d.Capacities(inst.N.FixedRects(), 0.97)
	start := time.Now()
	rep := region.CheckFeasibility(inst.N, d, caps)
	return time.Since(start), rep.Feasible, nil
}
