// Package congest estimates routing congestion with the RUDY model
// (Rectangular Uniform wire DensitY): every net spreads a wire density of
// (w+h)/(w*h) uniformly over its bounding box. Routability concerns are
// one of the §I motivations for movebounds ("for particular timing and
// routability issues"); the estimator lets users inspect whether a
// movebounded placement creates hotspots.
package congest

import (
	"math"
	"sort"

	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
)

// Map is a per-bin RUDY congestion map.
type Map struct {
	Grid *grid.Grid
	// Rudy[b] is the accumulated wire density of bin b (dimensionless;
	// ~1.0 means the bin area is fully covered by estimated wiring).
	Rudy []float64
}

// Estimate builds the RUDY map of the current placement on an nx x ny bin
// grid (0 = automatic: bins of ~8 row heights).
func Estimate(n *netlist.Netlist, nx, ny int) *Map {
	if nx <= 0 || ny <= 0 {
		bin := 8 * n.RowHeight
		nx = int(math.Ceil(n.Area.Width() / bin))
		ny = int(math.Ceil(n.Area.Height() / bin))
		if nx < 1 {
			nx = 1
		}
		if ny < 1 {
			ny = 1
		}
	}
	g := grid.MustNew(n.Area, nx, ny)
	m := &Map{Grid: g, Rudy: make([]float64, g.NumWindows())}
	for ni := range n.Nets {
		net := &n.Nets[ni]
		if len(net.Pins) < 2 {
			continue
		}
		// Bounding box from raw coordinates (point "rectangles" are
		// degenerate, so Rect.Union would discard them).
		bb := geom.Rect{Xlo: math.Inf(1), Ylo: math.Inf(1), Xhi: math.Inf(-1), Yhi: math.Inf(-1)}
		for _, p := range net.Pins {
			pos := n.PinPos(p)
			bb.Xlo = math.Min(bb.Xlo, pos.X)
			bb.Xhi = math.Max(bb.Xhi, pos.X)
			bb.Ylo = math.Min(bb.Ylo, pos.Y)
			bb.Yhi = math.Max(bb.Yhi, pos.Y)
		}
		// Degenerate boxes still carry wire: pad to half a row height.
		pad := n.RowHeight / 2
		if bb.Width() < pad {
			bb.Xlo -= pad / 2
			bb.Xhi += pad / 2
		}
		if bb.Height() < pad {
			bb.Ylo -= pad / 2
			bb.Yhi += pad / 2
		}
		bb = bb.Intersect(n.Area)
		if bb.Empty() {
			continue
		}
		// RUDY density of this net over its bounding box.
		density := net.Weight * (bb.Width() + bb.Height()) / (bb.Width() * bb.Height())
		ix0, iy0 := g.Locate(geom.Point{X: bb.Xlo + 1e-12, Y: bb.Ylo + 1e-12})
		ix1, iy1 := g.Locate(geom.Point{X: bb.Xhi - 1e-12, Y: bb.Yhi - 1e-12})
		for iy := iy0; iy <= iy1; iy++ {
			for ix := ix0; ix <= ix1; ix++ {
				w := g.Index(ix, iy)
				overlap := bb.Intersect(g.Window(ix, iy)).Area()
				binArea := g.Window(ix, iy).Area()
				if binArea > 0 {
					m.Rudy[w] += density * overlap / binArea
				}
			}
		}
	}
	return m
}

// Max returns the peak bin congestion.
func (m *Map) Max() float64 {
	max := 0.0
	for _, v := range m.Rudy {
		if v > max {
			max = v
		}
	}
	return max
}

// Percentile returns the q-quantile (0..1) of the bin congestion values.
func (m *Map) Percentile(q float64) float64 {
	vals := append([]float64(nil), m.Rudy...)
	sort.Float64s(vals)
	if len(vals) == 0 {
		return 0
	}
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

// Hotspot is one congested bin.
type Hotspot struct {
	Window geom.Rect
	Rudy   float64
}

// Hotspots returns the bins whose congestion exceeds the threshold,
// most congested first.
func (m *Map) Hotspots(threshold float64) []Hotspot {
	var out []Hotspot
	for w, v := range m.Rudy {
		if v > threshold {
			out = append(out, Hotspot{Window: m.Grid.WindowRect(w), Rudy: v})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Rudy > out[b].Rudy })
	return out
}
