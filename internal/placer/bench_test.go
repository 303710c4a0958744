package placer

import (
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/legalize"
	"fbplace/internal/qp"
	"fbplace/internal/region"
)

// BenchmarkLegalize times legalization alone on two 10k-cell chips with
// genchip's default 2 macros: a flat one (genchip -cells 10000 -seed 4),
// which legalizes as the one-region case of the §III partition, and one
// with 4 overlapping movebounds (genchip -cells 10000 -movebounds 4
// -overlap -seed 1). Global placement runs once, outside the timer; each
// iteration legalizes a fresh clone of its result.
func BenchmarkLegalize(b *testing.B) {
	for _, c := range []struct {
		name       string
		seed       int64
		movebounds int
	}{
		{"flat", 4, 0},
		{"movebounds", 1, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := gen.ChipSpec{Name: "custom", NumCells: 10000, Seed: c.seed, NumMacros: 2, Utilization: 0.55}
			for m := 0; m < c.movebounds; m++ {
				spec.Movebounds = append(spec.Movebounds, gen.MoveboundSpec{
					Kind: region.Inclusive, CellFraction: 0.3 / float64(c.movebounds),
					Density: 0.7, NestedIn: -1, Overlap: m%2 == 1,
				})
			}
			inst, err := gen.Chip(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Place(inst.N, Config{Movebounds: inst.Movebounds, SkipLegalization: true}); err != nil {
				b.Fatal(err)
			}
			mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
			if err != nil {
				b.Fatal(err)
			}
			d := region.Decompose(inst.N.Area, mbs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := inst.N.Clone()
				b.StartTimer()
				if _, err := legalize.Legalize(n, d, legalize.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTopLevelQP times the top-level quadratic solves of one
// placement on a generated 5k-cell chip (genchip -cells 5000 -seed 2): the
// assembly of the held system of all movable cells, one unanchored solve
// and the anchored solves of levels 1-5 with the placer's anchor weights.
// The anchors stand in for partitioning results: they pull every cell to
// its generated (spread) position, and each solve warm-starts where the
// previous one ended. Every iteration starts from the generated positions
// and reuses one workspace, sized before the timer starts.
func BenchmarkTopLevelQP(b *testing.B) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "custom", NumCells: 5000, Seed: 2, NumMacros: 2, Utilization: 0.55})
	if err != nil {
		b.Fatal(err)
	}
	n := inst.N
	x0, y0 := append([]float64(nil), n.X...), append([]float64(nil), n.Y...)
	movable := n.MovableIDs()
	anchors := make([]qp.Anchor, len(movable))
	opt := qp.Options{Workspace: qp.NewWorkspace()}
	solves := func() {
		copy(n.X, x0)
		copy(n.Y, y0)
		sys, err := qp.NewSystem(n, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.Solve(nil, opt); err != nil {
			b.Fatal(err)
		}
		for lv := 1; lv <= 5; lv++ {
			w := levelAnchorWeight(n, lv)
			for k, id := range movable {
				anchors[k] = qp.Anchor{Cell: id, Target: geom.Point{X: x0[id], Y: y0[id]}, Weight: w}
			}
			if err := sys.Solve(anchors, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	solves() // sizes the workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solves()
	}
}
