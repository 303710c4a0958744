package fbplace

import (
	"testing"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does: generate, check feasibility, place, verify.
func TestFacadeEndToEnd(t *testing.T) {
	inst, err := Generate(ChipSpec{
		Name: "facade", NumCells: 2000, Seed: 42,
		Movebounds: []MoveboundSpec{
			{Kind: Inclusive, CellFraction: 0.1, Density: 0.7, NestedIn: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckFeasibility(inst.N, inst.Movebounds, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("generated instance infeasible: %+v", rep)
	}
	pr, err := Place(inst.N, Config{Movebounds: inst.Movebounds})
	if err != nil {
		t.Fatal(err)
	}
	if pr.HPWL <= 0 {
		t.Fatal("no HPWL")
	}
	viol, err := CountViolations(inst.N, inst.Movebounds)
	if err != nil {
		t.Fatal(err)
	}
	if viol != 0 {
		t.Fatalf("violations = %d", viol)
	}
	if got := CountOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
}

// TestFacadeChecksRejectMissingMovebounds passes a two-movebound chip's
// netlist with one movebound and with none: its cells of movebound 1 (and
// 0) reference movebounds that were not given, so the feasibility check
// and the violation count must fail instead of counting those cells as
// unconstrained or indexing past their tables.
func TestFacadeChecksRejectMissingMovebounds(t *testing.T) {
	inst, err := Generate(ChipSpec{Name: "mb2", NumCells: 600, Seed: 3,
		Movebounds: []MoveboundSpec{
			{Kind: Inclusive, CellFraction: 0.1, Density: 0.7, NestedIn: -1},
			{Kind: Inclusive, CellFraction: 0.1, Density: 0.7, NestedIn: -1},
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckFeasibility(inst.N, inst.Movebounds, 0.97); err != nil {
		t.Fatalf("all movebounds given: %v", err)
	}
	for _, mbs := range [][]Movebound{inst.Movebounds[:1], nil} {
		if rep, err := CheckFeasibility(inst.N, mbs, 0.97); err == nil {
			t.Errorf("CheckFeasibility with %d of 2 movebounds: %+v, want an error", len(mbs), rep)
		}
		if viol, err := CountViolations(inst.N, mbs); err == nil {
			t.Errorf("CountViolations with %d of 2 movebounds: %d, want an error", len(mbs), viol)
		}
	}
}

func TestFacadePartitionStep(t *testing.T) {
	inst, err := Generate(ChipSpec{Name: "p", NumCells: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Partition(inst.N, nil, 4, 0.97)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumWindows != 16 {
		t.Fatalf("windows = %d", res.Stats.NumWindows)
	}
	for i := range inst.N.Cells {
		if !inst.N.Cells[i].Fixed && res.CellRegion[i].Window < 0 {
			t.Fatalf("cell %d unassigned", i)
		}
	}
}

func TestFacadeBaselineAndLegalize(t *testing.T) {
	inst, err := Generate(ChipSpec{Name: "b", NumCells: 1200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceBaseline(inst.N, BaselineConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Legalize(inst.N, nil); err != nil {
		t.Fatal(err)
	}
	if got := CountOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}

	// With movebounds, legalization keeps every cell inside its own.
	inst, err = Generate(ChipSpec{Name: "m", NumCells: 1200, Seed: 4,
		Movebounds: []MoveboundSpec{{Kind: Inclusive, CellFraction: 0.2, Density: 0.7, NestedIn: -1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlaceBaseline(inst.N, BaselineConfig{Movebounds: inst.Movebounds}); err != nil {
		t.Fatal(err)
	}
	if _, err := Legalize(inst.N, inst.Movebounds); err != nil {
		t.Fatal(err)
	}
	if got := CountOverlaps(inst.N); got != 0 {
		t.Fatalf("movebounds: overlaps = %d", got)
	}
	if viol, err := CountViolations(inst.N, inst.Movebounds); err != nil || viol != 0 {
		t.Fatalf("movebounds: violations = %d, err %v", viol, err)
	}
}

func TestFacadeCongestionAndDetail(t *testing.T) {
	inst, err := Generate(ChipSpec{Name: "cd", NumCells: 1200, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Place(inst.N, Config{}); err != nil {
		t.Fatal(err)
	}
	m := EstimateCongestion(inst.N, 0, 0)
	if m.Max() <= 0 {
		t.Fatal("no congestion estimated on a placed design")
	}
	if got := m.Percentile(0.5); got < 0 || got > m.Max() {
		t.Fatalf("percentile out of range: %v", got)
	}
	res, err := OptimizeDetailed(inst.N, nil, DetailOptions{Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHPWL > res.InitialHPWL {
		t.Fatalf("detail worsened HPWL: %v -> %v", res.InitialHPWL, res.FinalHPWL)
	}
	if got := CountOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
}
