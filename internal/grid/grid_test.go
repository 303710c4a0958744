package grid

import (
	"math"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 8, Yhi: 4}

func TestGridWindows(t *testing.T) {
	g := MustNew(chip, 4, 2)
	if g.NumWindows() != 8 {
		t.Fatalf("NumWindows = %d", g.NumWindows())
	}
	w := g.Window(0, 0)
	if w != (geom.Rect{Xlo: 0, Ylo: 0, Xhi: 2, Yhi: 2}) {
		t.Fatalf("Window(0,0) = %v", w)
	}
	w = g.Window(3, 1)
	if w != (geom.Rect{Xlo: 6, Ylo: 2, Xhi: 8, Yhi: 4}) {
		t.Fatalf("Window(3,1) = %v", w)
	}
	// Windows tile the chip exactly.
	total := 0.0
	for i := 0; i < g.NumWindows(); i++ {
		total += g.WindowRect(i).Area()
	}
	if math.Abs(total-chip.Area()) > 1e-9 {
		t.Fatalf("windows cover %v, chip %v", total, chip.Area())
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := MustNew(chip, 4, 2)
	for iy := 0; iy < 2; iy++ {
		for ix := 0; ix < 4; ix++ {
			gx, gy := g.Coords(g.Index(ix, iy))
			if gx != ix || gy != iy {
				t.Fatalf("roundtrip (%d,%d) -> (%d,%d)", ix, iy, gx, gy)
			}
		}
	}
}

func TestGridLocate(t *testing.T) {
	g := MustNew(chip, 4, 2)
	cases := []struct {
		p      geom.Point
		ix, iy int
	}{
		{geom.Point{X: 0.5, Y: 0.5}, 0, 0},
		{geom.Point{X: 7.9, Y: 3.9}, 3, 1},
		{geom.Point{X: -5, Y: -5}, 0, 0},   // clamped
		{geom.Point{X: 100, Y: 100}, 3, 1}, // clamped
		{geom.Point{X: 8, Y: 4}, 3, 1},     // chip corner clamps inside
	}
	for _, c := range cases {
		ix, iy := g.Locate(c.p)
		if ix != c.ix || iy != c.iy {
			t.Errorf("Locate(%v) = (%d,%d), want (%d,%d)", c.p, ix, iy, c.ix, c.iy)
		}
	}
}

func TestAssignCells(t *testing.T) {
	g := MustNew(chip, 4, 2)
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.SetPos(a, geom.Point{X: 1, Y: 1})
	f := n.AddCell(netlist.Cell{Width: 1, Height: 1, Fixed: true})
	n.SetPos(f, geom.Point{X: 7, Y: 3})
	assign := g.AssignCells(n)
	if assign[a] != g.Index(0, 0) {
		t.Fatalf("assign[a] = %d", assign[a])
	}
	if assign[f] != -1 {
		t.Fatalf("fixed cell assigned to window %d", assign[f])
	}
}

func buildWR(t *testing.T, mbs []region.Movebound, blockages geom.RectSet, density float64, nx, ny int) *WindowRegions {
	t.Helper()
	norm := mbs
	var err error
	if len(mbs) > 0 {
		norm, err = region.Normalize(chip, mbs)
		if err != nil {
			t.Fatal(err)
		}
	}
	d := region.Decompose(chip, norm)
	return BuildWindowRegions(MustNew(chip, nx, ny), d, blockages, density)
}

func TestWindowRegionsNoMovebounds(t *testing.T) {
	wr := buildWR(t, nil, nil, 1.0, 4, 2)
	if wr.NumRegions() != 8 { // one region piece per window
		t.Fatalf("NumRegions = %d", wr.NumRegions())
	}
	for w := 0; w < 8; w++ {
		if len(wr.PerWin[w]) != 1 {
			t.Fatalf("window %d has %d regions", w, len(wr.PerWin[w]))
		}
		if math.Abs(wr.PerWin[w][0].Capacity-4) > 1e-9 {
			t.Fatalf("window %d capacity = %v", w, wr.PerWin[w][0].Capacity)
		}
		want := wr.Grid.WindowRect(w).Center()
		if wr.PerWin[w][0].Center.DistL1(want) > 1e-9 {
			t.Fatalf("window %d center = %v, want %v", w, wr.PerWin[w][0].Center, want)
		}
	}
	if math.Abs(wr.TotalCapacity-chip.Area()) > 1e-9 {
		t.Fatalf("TotalCapacity = %v", wr.TotalCapacity)
	}
}

func TestWindowRegionsWithMovebound(t *testing.T) {
	mbs := []region.Movebound{
		{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 1, Ylo: 1, Xhi: 3, Yhi: 3}}},
	}
	wr := buildWR(t, mbs, nil, 1.0, 4, 2)
	// Windows (0,0), (1,0), (0,1), (1,1) each contain a piece of M plus a
	// piece of the outside region; the other 4 windows only the outside.
	if wr.NumRegions() != 4*2+4 {
		t.Fatalf("NumRegions = %d, want 12", wr.NumRegions())
	}
	// Capacity of M pieces: 1 area unit in each of the four windows.
	mPieces := 0
	for w := range wr.PerWin {
		for _, p := range wr.PerWin[w] {
			if wr.Decomp.Regions[p.Region].Covers[0] {
				mPieces++
				if math.Abs(p.Capacity-1) > 1e-9 {
					t.Fatalf("M piece capacity = %v", p.Capacity)
				}
			}
		}
	}
	if mPieces != 4 {
		t.Fatalf("M pieces = %d", mPieces)
	}
}

func TestWindowRegionsBlockageReducesCapacity(t *testing.T) {
	blk := geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 2, Yhi: 1}} // half of window (0,0)
	wr := buildWR(t, nil, blk, 1.0, 4, 2)
	if math.Abs(wr.PerWin[0][0].Capacity-2) > 1e-9 {
		t.Fatalf("blocked window capacity = %v, want 2", wr.PerWin[0][0].Capacity)
	}
	// Free centroid of window (0,0) moves up.
	if wr.PerWin[0][0].Center.Y <= 1 {
		t.Fatalf("blocked window center = %v", wr.PerWin[0][0].Center)
	}
	if math.Abs(wr.WindowCapacity(1)-4) > 1e-9 {
		t.Fatalf("unblocked window capacity = %v", wr.WindowCapacity(1))
	}
}

// TestWindowRegionsFullyBlocked checks the fallback for a window region
// with no free area: capacity 0 and the centre of its bounding box. The
// region outside the movebound is L-shaped in window (0,0), so its
// bounding-box centre differs from the centroid of its rectangles.
func TestWindowRegionsFullyBlocked(t *testing.T) {
	mbs := []region.Movebound{
		{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 1, Ylo: 1, Xhi: 3, Yhi: 3}}},
	}
	blk := geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 2, Yhi: 2}} // all of window (0,0)
	wr := buildWR(t, mbs, blk, 1.0, 4, 2)
	if len(wr.PerWin[0]) != 2 {
		t.Fatalf("window 0 has %d regions, want 2", len(wr.PerWin[0]))
	}
	for _, p := range wr.PerWin[0] {
		want := geom.Point{X: 1, Y: 1} // the L outside M
		if wr.Decomp.Regions[p.Region].Covers[0] {
			want = geom.Point{X: 1.5, Y: 1.5} // M's piece [1,2]x[1,2]
		} else if len(p.Rects) < 2 {
			t.Fatalf("outside region of window 0 is %v, want an L of several rects", p.Rects)
		}
		if p.Capacity != 0 {
			t.Fatalf("blocked region %d capacity = %v, want 0", p.Region, p.Capacity)
		}
		if p.Center != want {
			t.Fatalf("blocked region %d center = %v, want %v", p.Region, p.Center, want)
		}
	}
	if math.Abs(wr.WindowCapacity(1)-4) > 1e-9 {
		t.Fatalf("unblocked window capacity = %v", wr.WindowCapacity(1))
	}
}

func TestWindowRegionsDensityScaling(t *testing.T) {
	wr := buildWR(t, nil, nil, 0.5, 4, 2)
	if math.Abs(wr.TotalCapacity-chip.Area()*0.5) > 1e-9 {
		t.Fatalf("TotalCapacity = %v", wr.TotalCapacity)
	}
}

func TestDensityMapAccumulate(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 2})
	n.SetPos(a, geom.Point{X: 2, Y: 2}) // straddles four bins of a 4x2 map
	m := NewDensityMap(chip, 4, 2, nil, 1.0)
	m.Accumulate(n)
	total := 0.0
	for _, u := range m.Usage {
		total += u
	}
	if math.Abs(total-4) > 1e-9 {
		t.Fatalf("total usage = %v, want 4", total)
	}
	// The cell spans x 1..3, y 1..3: bins (0,0),(1,0),(0,1),(1,1) get 1 each.
	for _, w := range []int{m.Grid.Index(0, 0), m.Grid.Index(1, 0), m.Grid.Index(0, 1), m.Grid.Index(1, 1)} {
		if math.Abs(m.Usage[w]-1) > 1e-9 {
			t.Fatalf("bin %d usage = %v, want 1", w, m.Usage[w])
		}
	}
}

func TestDensityMapOverflow(t *testing.T) {
	m := NewDensityMap(chip, 4, 2, nil, 0.5) // capacity 2 per bin
	m.AddRect(geom.Rect{Xlo: 0, Ylo: 0, Xhi: 2, Yhi: 2})
	// One bin with usage 4 vs capacity 2: overflow 2.
	if got := m.Overflow(); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Overflow = %v, want 2", got)
	}
	if got := m.MaxDensity(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("MaxDensity = %v, want 1", got)
	}
}

func TestDensityMapBlockage(t *testing.T) {
	blk := geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 2, Yhi: 2}}
	m := NewDensityMap(chip, 4, 2, blk, 1.0)
	if m.Capacity[0] != 0 {
		t.Fatalf("blocked bin capacity = %v", m.Capacity[0])
	}
	if math.Abs(m.Capacity[1]-4) > 1e-9 {
		t.Fatalf("free bin capacity = %v", m.Capacity[1])
	}
}

func TestDensityMapClipsOutside(t *testing.T) {
	m := NewDensityMap(chip, 4, 2, nil, 1.0)
	m.AddRect(geom.Rect{Xlo: -2, Ylo: -2, Xhi: 1, Yhi: 1}) // mostly off chip
	total := 0.0
	for _, u := range m.Usage {
		total += u
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("usage = %v, want 1 (clipped)", total)
	}
}

func TestNewRejectsInvalidDimensions(t *testing.T) {
	for _, dims := range [][2]int{{0, 4}, {4, 0}, {-1, 4}, {4, -3}, {0, 0}} {
		if _, err := New(chip, dims[0], dims[1]); err == nil {
			t.Errorf("New(%dx%d) accepted invalid dimensions", dims[0], dims[1])
		}
	}
	if g, err := New(chip, 1, 1); err != nil || g == nil {
		t.Fatalf("New(1x1) = %v, %v", g, err)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(0x0) did not panic")
		}
	}()
	MustNew(chip, 0, 0)
}
