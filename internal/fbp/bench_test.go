package fbp

import (
	"fmt"
	"math/rand"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
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
	// The deep 32x32 level runs twice: "block" forces the legacy 3x3-block
	// realization, "pair" the neighbor-pair pass (the default there), to
	// keep the speedup of the pair pass visible.
	for _, c := range []struct {
		cells, nx, ny int
		mode          string
	}{
		{2000, 8, 8, ""},
		{2400, 12, 12, ""},
		{2400, 32, 32, "block"},
		{2400, 32, 32, "pair"},
	} {
		name := fmt.Sprintf("cells=%d/grid=%dx%d", c.cells, c.nx, c.ny)
		if c.mode != "" {
			name += "/" + c.mode
		}
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
				cfg := DefaultConfig()
				cfg.PairPass = c.mode != "block"
				b.StartTimer()
				if _, err := Realize(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
