package detail_test

import (
	"math"
	"testing"

	"fbplace/internal/detail"
	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/placer"
	"fbplace/internal/region"
)

func TestOptimizeReordersObviousInversion(t *testing.T) {
	// Two equal-width cells placed in inverted order relative to their
	// pads: detailed placement must swap them.
	n := netlist.New(geom.Rect{Xhi: 20, Yhi: 4}, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 1, Movebound: netlist.NoMovebound})
	b := n.AddCell(netlist.Cell{Width: 2, Height: 1, Movebound: netlist.NoMovebound})
	n.SetPos(a, geom.Point{X: 11, Y: 0.5})
	n.SetPos(b, geom.Point{X: 9, Y: 0.5})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 0, Y: 0.5}}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: b}, {Cell: -1, Offset: geom.Point{X: 20, Y: 0.5}}}})
	res, err := detail.Optimize(n, nil, detail.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHPWL >= res.InitialHPWL {
		t.Fatalf("no improvement: %g -> %g", res.InitialHPWL, res.FinalHPWL)
	}
	if n.X[a] >= n.X[b] {
		t.Fatalf("inversion not fixed: a at %g, b at %g", n.X[a], n.X[b])
	}
	if got := legalize.VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
}

func TestOptimizeNeverWorsens(t *testing.T) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "d", NumCells: 1500, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(inst.N, placer.Config{}); err != nil {
		t.Fatal(err)
	}
	before := inst.N.HPWL()
	res, err := detail.Optimize(inst.N, nil, detail.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalHPWL > before+1e-6 {
		t.Fatalf("HPWL worsened: %g -> %g", before, res.FinalHPWL)
	}
	if got := legalize.VerifyNoOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps after detail = %d", got)
	}
	if res.Reorders+res.Swaps == 0 {
		t.Fatal("no moves accepted on a realistic design")
	}
}

func TestOptimizeRespectsMovebounds(t *testing.T) {
	inst, err := gen.Chip(gen.ChipSpec{
		Name: "dm", NumCells: 1500, Seed: 32,
		Movebounds: []gen.MoveboundSpec{
			{Kind: region.Exclusive, CellFraction: 0.1, Density: 0.7, NestedIn: -1},
			{Kind: region.Inclusive, CellFraction: 0.15, Density: 0.7, NestedIn: -1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(inst.N, placer.Config{Movebounds: inst.Movebounds}); err != nil {
		t.Fatal(err)
	}
	norm, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := detail.Optimize(inst.N, norm, detail.Options{}); err != nil {
		t.Fatal(err)
	}
	if viol := region.CheckLegal(inst.N, norm); viol != 0 {
		t.Fatalf("detail placement introduced %d movebound violations", viol)
	}
	if got := legalize.VerifyNoOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
}

// TestOptimizeKeepsClearOfMacros places a chip with two fixed macros and
// requires detailed placement to leave it overlap-free: a reorder window
// that packs its cells left-justified must never pack them over a macro
// that sits inside its span.
func TestOptimizeKeepsClearOfMacros(t *testing.T) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "dmac", NumCells: 3000, NumMacros: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(inst.N, placer.Config{}); err != nil {
		t.Fatal(err)
	}
	if got := legalize.VerifyNoOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps before detail = %d", got)
	}
	before := inst.N.HPWL()
	res, err := detail.Optimize(inst.N, nil, detail.Options{Passes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := legalize.VerifyNoOverlaps(inst.N); got != 0 {
		t.Fatalf("overlaps after detail = %d", got)
	}
	if res.Reorders == 0 || res.FinalHPWL > before+1e-6 {
		t.Fatalf("%d reorders, HPWL %g -> %g; want moves and no loss", res.Reorders, before, res.FinalHPWL)
	}
}

// TestOptimizeDeterministic runs detailed placement three times on copies
// of one placed genchip chip and requires bit-identical positions: every
// HPWL total behind an accept/reject decision must be summed in one fixed
// net order.
func TestOptimizeDeterministic(t *testing.T) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "dd", NumCells: 2500, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(inst.N, placer.Config{}); err != nil {
		t.Fatal(err)
	}
	var first *netlist.Netlist
	for run := 0; run < 3; run++ {
		n := inst.N.Clone()
		res, err := detail.Optimize(n, nil, detail.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reorders+res.Swaps == 0 {
			t.Fatal("no moves accepted; the comparison would show nothing")
		}
		if first == nil {
			first = n
			continue
		}
		for i := range n.X {
			if math.Float64bits(n.X[i]) != math.Float64bits(first.X[i]) ||
				math.Float64bits(n.Y[i]) != math.Float64bits(first.Y[i]) {
				t.Fatalf("run %d: cell %d at (%v, %v), first run (%v, %v)",
					run, i, n.X[i], n.Y[i], first.X[i], first.Y[i])
			}
		}
	}
}
