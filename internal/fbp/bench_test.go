package fbp

import (
	"fmt"
	"math/rand"
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
	"fbplace/internal/region"
	"fbplace/internal/rql"
	"fbplace/internal/transport"
)

// benchInstance builds a crowded instance whose realization needs many
// waves: numCells small cells piled into one corner of an nx x ny grid.
func benchInstance(numCells, nx, ny int) (*netlist.Netlist, *grid.WindowRegions) {
	rng := rand.New(rand.NewSource(23))
	n := netlist.New(chip, 1)
	for i := 0; i < numCells; i++ {
		id := n.AddCell(netlist.Cell{Width: 0.2, Height: 0.5, Movebound: netlist.NoMovebound})
		n.SetPos(id, geom.Point{X: 1 + 3*rng.Float64(), Y: 1 + 3*rng.Float64()})
	}
	for e := 0; e < 2*numCells; e++ {
		i, j := rng.Intn(numCells), rng.Intn(numCells)
		if i != j {
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: netlist.CellID(i)}, {Cell: netlist.CellID(j)}}})
		}
	}
	d := region.Decompose(chip, nil)
	wr := grid.BuildWindowRegions(grid.MustNew(chip, nx, ny), d, nil, 1.0)
	return n, wr
}

// BenchmarkRealizeLevel measures one full realization (waves + final pass
// + repair) of a solved FBP model, the hot path of every placement level.
// The MCF model build and solve run outside the timer.
func BenchmarkRealizeLevel(b *testing.B) {
	for _, c := range []struct{ cells, nx, ny int }{
		{2000, 8, 8},
		{2400, 12, 12},
		{2400, 32, 32},
	} {
		name := fmt.Sprintf("cells=%d/grid=%dx%d", c.cells, c.nx, c.ny)
		b.Run(name, func(b *testing.B) {
			base, wr := benchInstance(c.cells, c.nx, c.ny)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := base.Clone()
				assign := wr.Grid.AssignCells(n)
				m := BuildModel(n, wr, assign)
				if err := m.Solve(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := Realize(m, DefaultConfig()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolveFBPGrid times the global MinCostFlow alone on the FBP
// models of a Table-I-shaped chip: gen.ErhardLike(0.001) (about 2.6k
// cells) spread by four RQL iterations, then the model of a 16x16, a
// 24x24 and a 32x32 window grid (16x16 and 24x24 are perfbench's
// table1-fine levels). Instance generation, spreading and each
// iteration's model build run outside the timer; the pivot count, the
// degenerate (zero flow change) pivots among them, the time per pivot and
// the allocations are reported next to ns/op.
func BenchmarkSolveFBPGrid(b *testing.B) {
	base, decomp, blockages := fbpGridInstance(b)
	for _, k := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("grid=%dx%d", k, k), func(b *testing.B) {
			wr, assign := fbpGridLevel(base, decomp, blockages, k)
			pivots, degenerate := 0, 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := BuildModel(base, wr, assign)
				b.StartTimer()
				if err := m.Solve(); err != nil {
					b.Fatal(err)
				}
				pivots += m.Stats.NSPivots
				degenerate += m.G.Degenerate
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots")
			b.ReportMetric(float64(degenerate)/float64(b.N), "degenerate")
			if pivots > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
			}
		})
	}
}

// BenchmarkBuildFBPModel times BuildModel alone on the same three grids
// as BenchmarkSolveFBPGrid: the node and arc construction of the global
// MinCostFlow, which runs once per level before every solve.
func BenchmarkBuildFBPModel(b *testing.B) {
	base, decomp, blockages := fbpGridInstance(b)
	for _, k := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("grid=%dx%d", k, k), func(b *testing.B) {
			wr, assign := fbpGridLevel(base, decomp, blockages, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BuildModel(base, wr, assign)
			}
		})
	}
}

// fbpGridInstance builds the Table-I-shaped chip of BenchmarkSolveFBPGrid:
// gen.ErhardLike(0.001) spread by four RQL iterations, with its
// normalized movebound decomposition and blockages.
func fbpGridInstance(tb testing.TB) (*netlist.Netlist, *region.Decomposition, geom.RectSet) {
	tb.Helper()
	inst, err := gen.Chip(gen.ErhardLike(0.001))
	if err != nil {
		tb.Fatal(err)
	}
	mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
	if err != nil {
		tb.Fatal(err)
	}
	base := inst.N.Clone()
	if _, err := rql.Place(base, rql.Config{MaxIters: 4, Movebounds: mbs}); err != nil {
		tb.Fatal(err)
	}
	return base, region.Decompose(inst.N.Area, mbs), inst.N.FixedRects()
}

// fbpGridLevel returns the window regions of a k x k grid over base and
// its cells' window assignment, the inputs of that level's BuildModel.
func fbpGridLevel(base *netlist.Netlist, decomp *region.Decomposition, blockages geom.RectSet, k int) (*grid.WindowRegions, []int) {
	g := grid.MustNew(base.Area, k, k)
	return grid.BuildWindowRegions(g, decomp, blockages, 0.97), g.AssignCells(base)
}

// BenchmarkPairStep times one transportation of the pair pass alone: the
// first pair of the first topological level of the 2x2 model of a
// 10k-cell chip with four overlapping inclusive movebounds (the chip of
// `genchip -cells 10000 -movebounds 4 -overlap -seed 1`), started from its
// initial QP. The placer no longer runs a 2x2 level; the model stands for
// a pair that starts from a collapsed placement, where wide groups of
// tied transport costs make the step expensive. The step is built
// through the functions realizeUnit calls (pairTargets, markRealized,
// buildStep) without the footprint QP; chip generation, QP, model solve
// and build run outside the timer. The problem size and the condensed
// engine's refills and tie scans per solve are reported next to ns/op.
func BenchmarkPairStep(b *testing.B) {
	spec := gen.ChipSpec{Name: "pairstep", NumCells: 10000, Seed: 1, NumMacros: 2}
	for k := 0; k < 4; k++ {
		spec.Movebounds = append(spec.Movebounds, gen.MoveboundSpec{
			Kind: region.Inclusive, CellFraction: 0.3 / 4, Density: 0.7, NestedIn: -1, Overlap: k%2 == 1,
		})
	}
	inst, err := gen.Chip(spec)
	if err != nil {
		b.Fatal(err)
	}
	n := inst.N
	mbs, err := region.Normalize(n.Area, inst.Movebounds)
	if err != nil {
		b.Fatal(err)
	}
	if err := qp.Solve(n, nil, qp.Options{}); err != nil {
		b.Fatal(err)
	}
	wr := grid.BuildWindowRegions(grid.MustNew(n.Area, 2, 2), region.Decompose(n.Area, mbs), n.FixedRects(), 0.97)
	m := BuildModel(n, wr, wr.Grid.AssignCells(n))
	if err := m.Solve(); err != nil {
		b.Fatal(err)
	}
	r := newRealizer(m, DefaultConfig(), nil)
	levels, err := r.topoLevels()
	if err != nil {
		b.Fatal(err)
	}
	if len(levels) == 0 {
		b.Fatal("the level-1 model carries no external flow")
	}
	un := levels[0][0]
	sc := newWorkerScratch()
	target := r.pairTargets(un, sc)[0]
	r.markRealized(target.edges)
	r.buildStep(&sc.step, un.window, target.to)
	p := &sc.step.prob
	rec := obs.New(nil)
	p.Obs = rec
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := transport.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.NumSources()), "sources")
	b.ReportMetric(float64(p.NumSinks()), "sinks")
	b.ReportMetric(rec.Counter("transport.tie_scans")/float64(b.N), "tie_scans/op")
	b.ReportMetric(rec.Counter("transport.refills")/float64(b.N), "refills/op")
}
