package qp

import (
	"fmt"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

// gridNetlist builds a side x side grid of unit cells (cell (i,j) at
// (i+0.5, j+0.5)) connected by 2-pin nets to the right and upper
// neighbors, mimicking the locality of a placed standard-cell design.
func gridNetlist(side int) *netlist.Netlist {
	area := geom.Rect{Xhi: float64(side), Yhi: float64(side)}
	n := netlist.New(area, 1)
	id := func(x, y int) netlist.CellID { return netlist.CellID(y*side + x) }
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			c := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
			n.SetPos(c, geom.Point{X: float64(x) + 0.5, Y: float64(y) + 0.5})
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			if x+1 < side {
				n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: id(x, y)}, {Cell: id(x+1, y)}}})
			}
			if y+1 < side {
				n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: id(x, y)}, {Cell: id(x, y+1)}}})
			}
		}
	}
	// Four corner pads keep the system anchored.
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: float64(side), Y: 0}, {X: 0, Y: float64(side)}, {X: float64(side), Y: float64(side)}} {
		cx, cy := int(p.X), int(p.Y)
		if cx == side {
			cx--
		}
		if cy == side {
			cy--
		}
		n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: id(cx, cy)}, {Cell: -1, Offset: p}}})
	}
	return n
}

// blockSubset returns the cells of a blockSide x blockSide block in the
// middle of the grid — the shape of a realization unit's local QP subset.
func blockSubset(side, blockSide int) []netlist.CellID {
	x0, y0 := side/2, side/2
	var subset []netlist.CellID
	for y := y0; y < y0+blockSide; y++ {
		for x := x0; x < x0+blockSide; x++ {
			subset = append(subset, netlist.CellID(y*side+x))
		}
	}
	return subset
}

// BenchmarkSolveSubsetBlock measures one realization-local QP over a small
// block of a large netlist. Before the incident-net index this walked (and
// allocated for) every net in the netlist per call.
func BenchmarkSolveSubsetBlock(b *testing.B) {
	for _, side := range []int{100, 200} {
		b.Run(fmt.Sprintf("cells=%d", side*side), func(b *testing.B) {
			n := gridNetlist(side)
			subset := blockSubset(side, 12)
			// One workspace per worker is how the realization drives this
			// path; the benchmark mirrors that steady state.
			opt := Options{Tol: 1e-3, MaxIter: 60, BestEffort: true, Workspace: NewWorkspace()}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SolveSubset(n, subset, nil, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
