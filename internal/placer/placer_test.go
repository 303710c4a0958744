package placer

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/degrade"
	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
)

func smallChip(t *testing.T, cells int, seed int64, mbs []gen.MoveboundSpec) *gen.Instance {
	t.Helper()
	inst, err := gen.Chip(gen.ChipSpec{
		Name: "test", NumCells: cells, Seed: seed, Movebounds: mbs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestPlaceProducesLegalPlacement(t *testing.T) {
	inst := smallChip(t, 2000, 1, nil)
	rep, err := Place(inst.N, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlaps != 0 {
		t.Fatalf("overlaps = %d", rep.Overlaps)
	}
	if rep.HPWL <= 0 {
		t.Fatalf("HPWL = %g", rep.HPWL)
	}
	for i := range inst.N.Cells {
		if !inst.N.Area.ContainsRect(inst.N.CellRect(netlist.CellID(i))) {
			t.Fatalf("cell %d outside chip", i)
		}
	}
}

func TestPlaceBeatsRandomPlacementHPWL(t *testing.T) {
	// Two baselines: a random lattice (must beat it by far) and the
	// generator's own locality lattice, which is close to the intended
	// optimum (must at least match it).
	inst := smallChip(t, 2000, 2, nil)
	lattice := func(perm func(int) int) float64 {
		m := inst.N.Clone()
		k := 0
		nx := 45
		for i := range m.Cells {
			if m.Cells[i].Fixed {
				continue
			}
			p := perm(k)
			m.SetPos(netlist.CellID(i), geom.Point{
				X: m.Area.Xlo + (float64(p%nx)+0.5)/float64(nx)*m.Area.Width(),
				Y: m.Area.Ylo + (float64(p/nx)+0.5)/float64(nx)*m.Area.Height(),
			})
			k++
		}
		return m.HPWL()
	}
	ideal := lattice(func(k int) int { return k })
	shuffled := lattice(func(k int) int { return (k * 997) % 2000 })
	rep, err := Place(inst.N, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.HPWL > 0.35*shuffled {
		t.Fatalf("placer HPWL %.0f not clearly better than random lattice %.0f", rep.HPWL, shuffled)
	}
	if rep.HPWL > 1.05*ideal {
		t.Fatalf("placer HPWL %.0f much worse than the generator's locality lattice %.0f", rep.HPWL, ideal)
	}
}

func TestPlaceWithMovebounds(t *testing.T) {
	inst := smallChip(t, 2500, 3, []gen.MoveboundSpec{
		{Kind: region.Inclusive, CellFraction: 0.15, Density: 0.7, NestedIn: -1},
		{Kind: region.Inclusive, CellFraction: 0.10, Density: 0.7, NestedIn: 0},
		{Kind: region.Inclusive, CellFraction: 0.10, Density: 0.7, NestedIn: -1, Overlap: true},
	})
	rep, err := Place(inst.N, Config{Movebounds: inst.Movebounds})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("movebound violations = %d (FBP must produce legal placements)", rep.Violations)
	}
	if rep.Overlaps != 0 {
		t.Fatalf("overlaps = %d", rep.Overlaps)
	}
	if len(rep.FBPStats) != rep.Levels {
		t.Fatalf("FBPStats = %d, levels = %d", len(rep.FBPStats), rep.Levels)
	}
}

func TestPlaceExclusiveMovebounds(t *testing.T) {
	inst := smallChip(t, 2500, 4, []gen.MoveboundSpec{
		{Kind: region.Exclusive, CellFraction: 0.12, Density: 0.7, NestedIn: -1},
		{Kind: region.Exclusive, CellFraction: 0.08, Density: 0.7, NestedIn: -1},
	})
	rep, err := Place(inst.N, Config{Movebounds: inst.Movebounds})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations != 0 {
		t.Fatalf("violations = %d", rep.Violations)
	}
}

func TestPlaceInfeasibleRejected(t *testing.T) {
	inst := smallChip(t, 2000, 5, nil)
	// A movebound far too small for a third of the cells.
	mbs := []region.Movebound{{
		Name: "tiny", Kind: region.Inclusive,
		Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 5, Yhi: 5}},
	}}
	for i := 0; i < 600; i++ {
		inst.N.Cells[i].Movebound = 0
	}
	_, err := Place(inst.N, Config{Movebounds: mbs})
	if err == nil || !strings.Contains(err.Error(), "infeasible") {
		t.Fatalf("err = %v, want infeasibility report", err)
	}
}

func TestPlaceRecursiveBaseline(t *testing.T) {
	inst := smallChip(t, 2000, 6, nil)
	rep, err := Place(inst.N, Config{Mode: ModeRecursive})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlaps != 0 {
		t.Fatalf("overlaps = %d", rep.Overlaps)
	}
	if len(rep.FBPStats) != 0 {
		t.Fatal("recursive mode must not record FBP stats")
	}
}

func TestPlaceWithClustering(t *testing.T) {
	inst := smallChip(t, 3000, 7, nil)
	rep, err := Place(inst.N, Config{ClusterRatio: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overlaps != 0 {
		t.Fatalf("overlaps = %d", rep.Overlaps)
	}
	if got := legalize.VerifyNoOverlaps(inst.N); got != 0 {
		t.Fatalf("verify overlaps = %d", got)
	}
}

func TestPlaceSkipLegalization(t *testing.T) {
	inst := smallChip(t, 1500, 8, nil)
	rep, err := Place(inst.N, Config{SkipLegalization: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LegalTime != 0 {
		t.Fatal("legalization ran despite SkipLegalization")
	}
	if rep.HPWL <= 0 {
		t.Fatal("no HPWL")
	}
}

func TestPlaceIncremental(t *testing.T) {
	// Place, perturb a small subset, re-place with KeepPlacement: the
	// incremental run must not blow up the wirelength.
	inst := smallChip(t, 2000, 9, nil)
	rep1, err := Place(inst.N, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb 5% of the cells to the chip center.
	for i := 0; i < 100; i++ {
		inst.N.SetPos(netlist.CellID(i*17%2000), inst.N.Area.Center())
	}
	rep2, err := Place(inst.N, Config{KeepPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Overlaps != 0 {
		t.Fatalf("incremental overlaps = %d", rep2.Overlaps)
	}
	if rep2.HPWL > 1.5*rep1.HPWL {
		t.Fatalf("incremental HPWL %.0f vs original %.0f", rep2.HPWL, rep1.HPWL)
	}
}

func TestPlaceRuntimeSplitRecorded(t *testing.T) {
	inst := smallChip(t, 1500, 10, nil)
	rep, err := Place(inst.N, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.GlobalTime <= 0 || rep.LegalTime <= 0 {
		t.Fatalf("times not recorded: %v / %v", rep.GlobalTime, rep.LegalTime)
	}
}

func TestPlaceDeterministicAcrossWorkers(t *testing.T) {
	// §IV.B: unit realization is parallel but units are disjoint, so the
	// result must not depend on the worker count. Run under -race to also
	// exercise the wave scheduling for data races.
	mbs := []gen.MoveboundSpec{
		{Kind: region.Inclusive, CellFraction: 0.15, Density: 0.7, NestedIn: -1},
		{Kind: region.Inclusive, CellFraction: 0.10, Density: 0.7, NestedIn: -1, Overlap: true},
	}
	run := func(workers int) (*Report, *netlist.Netlist) {
		inst := smallChip(t, 2500, 42, mbs)
		rep, err := Place(inst.N, Config{Movebounds: inst.Movebounds, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rep, inst.N
	}
	rep1, n1 := run(1)
	rep4, n4 := run(4)
	if rep1.HPWL != rep4.HPWL {
		t.Fatalf("HPWL differs across worker counts: 1 worker %.6f, 4 workers %.6f", rep1.HPWL, rep4.HPWL)
	}
	for i := range n1.Cells {
		p1, p4 := n1.Pos(netlist.CellID(i)), n4.Pos(netlist.CellID(i))
		if p1 != p4 {
			t.Fatalf("cell %d position differs: %v vs %v", i, p1, p4)
		}
	}
}

// TestLoadMixMoveboundChipPlaces places the load-mix chip that once failed
// realization at level 4 with "transport: infeasible instance":
// gen.LoadMix(40, 5000025)[23], 2000 cells with one inclusive movebound.
// With its movebound kept it must place and certify at 1 and 2 workers,
// legally and bit-identically.
func TestLoadMixMoveboundChipPlaces(t *testing.T) {
	spec := gen.LoadMix(40, 5000025)[23]
	if len(spec.Movebounds) != 1 {
		t.Fatalf("spec carries %d movebounds, want 1", len(spec.Movebounds))
	}
	run := func(workers int) (*Report, *netlist.Netlist) {
		inst, err := gen.Chip(spec)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Place(inst.N, Config{Movebounds: inst.Movebounds, Workers: workers, Certify: CertifyFinal})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !rep.Certified || rep.Violations != 0 || rep.Overlaps != 0 {
			t.Fatalf("workers=%d: certified %v, violations %d, overlaps %d",
				workers, rep.Certified, rep.Violations, rep.Overlaps)
		}
		return rep, inst.N
	}
	rep1, n1 := run(1)
	rep2, n2 := run(2)
	if rep1.HPWL != rep2.HPWL {
		t.Fatalf("HPWL differs across worker counts: %.6f vs %.6f", rep1.HPWL, rep2.HPWL)
	}
	for i := range n1.Cells {
		if p1, p2 := n1.Pos(netlist.CellID(i)), n2.Pos(netlist.CellID(i)); p1 != p2 {
			t.Fatalf("cell %d position differs: %v vs %v", i, p1, p2)
		}
	}
}

func TestPlaceRecordsObservability(t *testing.T) {
	inst := smallChip(t, 1500, 13, nil)
	rec := obs.New(nil)
	rep, err := Place(inst.N, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	if rep.QPSolves == 0 || rep.CGIters == 0 {
		t.Fatalf("QP effort not reported: solves=%d iters=%d", rep.QPSolves, rep.CGIters)
	}
	for _, c := range []string{"cg.iters", "ns.pivots", "transport.solves", "fbp.waves", "legalize.cells"} {
		if rec.Counter(c) <= 0 {
			t.Errorf("counter %q not recorded (got %g)", c, rec.Counter(c))
		}
	}
	var sum strings.Builder
	rec.WriteSummary(&sum)
	for _, phase := range []string{"place", "global", "level", "legalize"} {
		if !strings.Contains(sum.String(), phase) {
			t.Errorf("summary tree missing phase %q:\n%s", phase, sum.String())
		}
	}
	stats := rep.FBPStats
	if len(stats) == 0 {
		t.Fatal("no FBP stats")
	}
	pivots := 0
	for _, s := range stats {
		pivots += s.NSPivots
	}
	if pivots <= 0 {
		t.Fatal("network simplex pivots not recorded in FBP stats")
	}
}

func TestLevelsForBounds(t *testing.T) {
	inst := smallChip(t, 2000, 11, nil)
	lv := levelsFor(inst.N, Config{})
	if lv < 2 || lv > 9 {
		t.Fatalf("levels = %d", lv)
	}
	if got := levelsFor(inst.N, Config{MaxLevels: 3}); got != 3 {
		t.Fatalf("MaxLevels override = %d", got)
	}
}

func TestPlaceWithDetailPasses(t *testing.T) {
	inst := smallChip(t, 2000, 12, nil)
	base := inst.N.Clone()
	rep1, err := Place(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Place(inst.N, Config{DetailPasses: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Overlaps != 0 {
		t.Fatalf("overlaps after detail = %d", rep2.Overlaps)
	}
	if rep2.HPWL > rep1.HPWL {
		t.Fatalf("detail passes worsened HPWL: %.0f vs %.0f", rep2.HPWL, rep1.HPWL)
	}
	if rep2.DetailResult.Reorders+rep2.DetailResult.Swaps == 0 {
		t.Fatal("detail pass reported no moves")
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string
	}{
		{"unknown mode", Config{Mode: Mode(99)}, "Mode"},
		{"density above 1", Config{TargetDensity: 1.2}, "TargetDensity"},
		{"negative density", Config{TargetDensity: -0.5}, "TargetDensity"},
		{"NaN density", Config{TargetDensity: math.NaN()}, "TargetDensity"},
		{"+Inf density", Config{TargetDensity: math.Inf(1)}, "TargetDensity"},
		{"-Inf density", Config{TargetDensity: math.Inf(-1)}, "TargetDensity"},
		{"negative cluster ratio", Config{ClusterRatio: -1}, "ClusterRatio"},
		{"NaN cluster ratio", Config{ClusterRatio: math.NaN()}, "ClusterRatio"},
		{"+Inf cluster ratio", Config{ClusterRatio: math.Inf(1)}, "ClusterRatio"},
		{"-Inf cluster ratio", Config{ClusterRatio: math.Inf(-1)}, "ClusterRatio"},
		{"negative levels", Config{MaxLevels: -2}, "MaxLevels"},
		{"negative workers", Config{Workers: -4}, "Workers"},
		{"negative detail passes", Config{DetailPasses: -1}, "DetailPasses"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("Validate = %v, want *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Fatalf("flagged field %q, want %q", ce.Field, tc.field)
			}
			// The facade must reject the config before touching the
			// netlist.
			inst := smallChip(t, 50, 9, nil)
			if _, perr := Place(inst.N, tc.cfg); !errors.As(perr, &ce) {
				t.Fatalf("Place accepted an invalid config: %v", perr)
			}
		})
	}
	if err := (&Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
}

// TestFBPConfigForwarding pins how a level's fbp.Config derives from the
// placer's: the local-QP switch, the worker count and every piece of
// per-run plumbing carry through, and without per-level certification the
// checker is a nil interface, not a typed nil the realization would call
// into. Workers does not steer the trajectory, so it stays out of the
// fingerprint.
func TestFBPConfigForwarding(t *testing.T) {
	rec := obs.New(nil)
	cfg := Config{Workers: 4, Obs: rec}
	ctx := context.Background()
	dl := degrade.New(rec)
	check := &certify.Checker{Obs: rec, Ctx: ctx, Level: 3}
	got := cfg.fbpConfig(ctx, dl, check)
	if got.Check != check || got.Obs != rec || got.Ctx != ctx || got.Degrade != dl {
		t.Fatal("fbp config dropped Check/Obs/Ctx/Degrade")
	}
	if !got.LocalQP || got.Workers != 4 {
		t.Fatalf("fbp config LocalQP %v, Workers %d; want true, 4", got.LocalQP, got.Workers)
	}
	if c := cfg.fbpConfig(ctx, dl, nil); c.Check != nil {
		t.Fatalf("Check = %#v without a checker, want nil", c.Check)
	}
	seq := cfg
	seq.Workers = 1
	if ConfigFingerprint(&seq) != ConfigFingerprint(&cfg) {
		t.Fatal("ConfigFingerprint depends on Workers")
	}
}
