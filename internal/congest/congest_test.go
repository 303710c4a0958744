package congest

import (
	"math"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

func TestEstimateSingleNet(t *testing.T) {
	n := netlist.New(geom.Rect{Xhi: 40, Yhi: 40}, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	n.SetPos(a, geom.Point{X: 5, Y: 5})
	n.SetPos(b, geom.Point{X: 15, Y: 15})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: b}}})
	m := Estimate(n, 4, 4)
	// The net bbox is [5,15]^2: density = 20/100 = 0.2 spread over it.
	// Bin (0,0) is [0,10]^2, overlap [5,10]^2 = 25, bin area 100:
	// contribution 0.2 * 25/100 = 0.05.
	got := m.Rudy[m.Grid.Index(0, 0)]
	if math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("bin(0,0) = %v, want 0.05", got)
	}
	// Far corner untouched.
	if m.Rudy[m.Grid.Index(3, 3)] != 0 {
		t.Fatalf("far bin = %v", m.Rudy[m.Grid.Index(3, 3)])
	}
	// Total over the four touched bins: 0.2 * 100/100 = 0.2.
	total := 0.0
	for _, v := range m.Rudy {
		total += v
	}
	if math.Abs(total-0.2) > 1e-9 {
		t.Fatalf("total = %v, want 0.2", total)
	}
}

func TestEstimateDegenerateNetPadded(t *testing.T) {
	n := netlist.New(geom.Rect{Xhi: 10, Yhi: 10}, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	n.SetPos(a, geom.Point{X: 5, Y: 5})
	n.SetPos(b, geom.Point{X: 5, Y: 5}) // zero-size bbox
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: b}}})
	m := Estimate(n, 2, 2)
	if m.Max() <= 0 || math.IsInf(m.Max(), 1) || math.IsNaN(m.Max()) {
		t.Fatalf("degenerate net produced Max = %v", m.Max())
	}
}

func TestHotspotsAndPercentile(t *testing.T) {
	n := netlist.New(geom.Rect{Xhi: 20, Yhi: 20}, 1)
	var pins []netlist.Pin
	for i := 0; i < 6; i++ {
		c := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
		n.SetPos(c, geom.Point{X: 2 + float64(i)*0.5, Y: 2})
		pins = append(pins, netlist.Pin{Cell: c})
	}
	// Many short nets in one corner.
	for i := 0; i+1 < len(pins); i++ {
		n.AddNet(netlist.Net{Pins: []netlist.Pin{pins[i], pins[i+1]}})
	}
	m := Estimate(n, 4, 4)
	hs := m.Hotspots(m.Percentile(0.9))
	if len(hs) == 0 {
		t.Fatal("no hotspots above the 90th percentile")
	}
	if hs[0].Rudy != m.Max() {
		t.Fatalf("hotspots not sorted: %v vs max %v", hs[0].Rudy, m.Max())
	}
	// The hotspot is the lower-left corner bin.
	if !hs[0].Window.Contains(geom.Point{X: 2.5, Y: 2.5}) {
		t.Fatalf("hotspot at %v", hs[0].Window)
	}
}

func TestEstimateAutoBins(t *testing.T) {
	n := netlist.New(geom.Rect{Xhi: 100, Yhi: 60}, 1)
	m := Estimate(n, 0, 0)
	if m.Grid.Nx != 13 || m.Grid.Ny != 8 { // ceil(100/8), ceil(60/8)
		t.Fatalf("auto bins = %dx%d", m.Grid.Nx, m.Grid.Ny)
	}
}
