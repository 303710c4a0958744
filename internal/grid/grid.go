// Package grid provides the regular window grids used by partitioning
// (paper §III), per-window region data (the R_w sets of §IV.A), and the
// bin density bookkeeping shared by the spreading baseline and the
// ISPD-2006 scoring metric.
package grid

import (
	"fmt"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// Grid is a regular Nx x Ny decomposition of the chip into windows.
type Grid struct {
	Chip   geom.Rect
	Nx, Ny int
}

// New returns an nx x ny grid over the chip area. Both dimensions must be
// positive; invalid dimensions are reported as an error so configuration
// mistakes surface to the caller instead of crashing the process.
func New(chip geom.Rect, nx, ny int) (*Grid, error) {
	if nx <= 0 || ny <= 0 {
		return nil, fmt.Errorf("grid: invalid dimensions %dx%d", nx, ny)
	}
	return &Grid{Chip: chip, Nx: nx, Ny: ny}, nil
}

// MustNew is New for dimensions that are statically known to be positive
// (tests, literals, already-clamped values). It panics on invalid
// dimensions, which in those contexts is a programming error.
func MustNew(chip geom.Rect, nx, ny int) *Grid {
	g, err := New(chip, nx, ny)
	if err != nil {
		panic(err) //fbpvet:allow caller guarantees positive dimensions
	}
	return g
}

// NumWindows returns Nx*Ny.
func (g *Grid) NumWindows() int { return g.Nx * g.Ny }

// Index maps window coordinates to a dense window index.
func (g *Grid) Index(ix, iy int) int { return iy*g.Nx + ix }

// Coords inverts Index.
func (g *Grid) Coords(w int) (ix, iy int) { return w % g.Nx, w / g.Nx }

// xLine returns the i-th vertical grid line (0..Nx).
func (g *Grid) xLine(i int) float64 {
	return g.Chip.Xlo + g.Chip.Width()*float64(i)/float64(g.Nx)
}

func (g *Grid) yLine(j int) float64 {
	return g.Chip.Ylo + g.Chip.Height()*float64(j)/float64(g.Ny)
}

// Window returns the rectangle of window (ix, iy).
func (g *Grid) Window(ix, iy int) geom.Rect {
	return geom.Rect{
		Xlo: g.xLine(ix), Ylo: g.yLine(iy),
		Xhi: g.xLine(ix + 1), Yhi: g.yLine(iy + 1),
	}
}

// WindowRect returns the rectangle of window index w.
func (g *Grid) WindowRect(w int) geom.Rect {
	ix, iy := g.Coords(w)
	return g.Window(ix, iy)
}

// Locate returns the window coordinates containing point p, clamped to
// the grid (points outside the chip map to the nearest window).
func (g *Grid) Locate(p geom.Point) (ix, iy int) {
	fx := (p.X - g.Chip.Xlo) / g.Chip.Width() * float64(g.Nx)
	fy := (p.Y - g.Chip.Ylo) / g.Chip.Height() * float64(g.Ny)
	ix = clampInt(int(fx), 0, g.Nx-1)
	iy = clampInt(int(fy), 0, g.Ny-1)
	return ix, iy
}

// LocateIndex returns the dense window index containing p.
func (g *Grid) LocateIndex(p geom.Point) int {
	ix, iy := g.Locate(p)
	return g.Index(ix, iy)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// AssignCells maps every movable cell to the window containing its
// current center. The result is indexed by CellID; fixed cells map to -1.
func (g *Grid) AssignCells(n *netlist.Netlist) []int {
	assign := make([]int, n.NumCells())
	for i := range n.Cells {
		if n.Cells[i].Fixed {
			assign[i] = -1
			continue
		}
		assign[i] = g.LocateIndex(n.Pos(netlist.CellID(i)))
	}
	return assign
}

// WindowRegion is a piece of a decomposition region inside one window —
// an element of the paper's R_w.
type WindowRegion struct {
	// Window is the dense window index, Region the decomposition region.
	Window, Region int
	// Rects is the region area clipped to the window.
	Rects geom.RectSet
	// Capacity is the free area (minus blockages, scaled by density).
	Capacity float64
	// Center is the center of gravity of the free area.
	Center geom.Point
}

// WindowRegions holds, per window, the clipped regions with capacities —
// the R_w sets the flow model and the local partitioning steps work on.
type WindowRegions struct {
	Grid          *Grid
	Decomp        *region.Decomposition
	PerWin        [][]WindowRegion
	TotalCapacity float64
}

// BuildWindowRegions clips the decomposition to each grid window and
// computes free capacities and free-area centroids.
func BuildWindowRegions(g *Grid, d *region.Decomposition, blockages geom.RectSet, density float64) *WindowRegions {
	wr := &WindowRegions{
		Grid:   g,
		Decomp: d,
		PerWin: make([][]WindowRegion, g.NumWindows()),
	}
	// Map region index per window for accumulation.
	index := make([]map[int]int, g.NumWindows()) // region -> position in PerWin[w]
	for w := range index {
		index[w] = map[int]int{}
	}
	for ri := range d.Regions {
		for _, rect := range d.Regions[ri].Rects {
			// Find the window range the rect spans.
			ix0, iy0 := g.Locate(geom.Point{X: rect.Xlo + 1e-12, Y: rect.Ylo + 1e-12})
			ix1, iy1 := g.Locate(geom.Point{X: rect.Xhi - 1e-12, Y: rect.Yhi - 1e-12})
			for iy := iy0; iy <= iy1; iy++ {
				for ix := ix0; ix <= ix1; ix++ {
					w := g.Index(ix, iy)
					piece := rect.Intersect(g.Window(ix, iy))
					if piece.Empty() {
						continue
					}
					pos, ok := index[w][ri]
					if !ok {
						pos = len(wr.PerWin[w])
						index[w][ri] = pos
						wr.PerWin[w] = append(wr.PerWin[w], WindowRegion{Window: w, Region: ri})
					}
					wr.PerWin[w][pos].Rects = append(wr.PerWin[w][pos].Rects, piece)
				}
			}
		}
	}
	for w := range wr.PerWin {
		for i := range wr.PerWin[w] {
			p := &wr.PerWin[w][i]
			var sx, sy, sa float64
			for _, rect := range p.Rects {
				for _, f := range (geom.RectSet{rect}).Subtract(blockages.Clip(rect)) {
					a := f.Area()
					c := f.Center()
					sx += c.X * a
					sy += c.Y * a
					sa += a
				}
			}
			p.Capacity = sa * density
			if sa > 0 {
				p.Center = geom.Point{X: sx / sa, Y: sy / sa}
			} else {
				p.Center = p.Rects.BBox().Center()
			}
			wr.TotalCapacity += p.Capacity
		}
	}
	return wr
}

// NumRegions returns the total number of window-region pieces (the |R| of
// paper Table I).
func (wr *WindowRegions) NumRegions() int {
	total := 0
	for _, rs := range wr.PerWin {
		total += len(rs)
	}
	return total
}

// WindowCapacity returns the total capacity of window w.
func (wr *WindowRegions) WindowCapacity(w int) float64 {
	total := 0.0
	for _, r := range wr.PerWin[w] {
		total += r.Capacity
	}
	return total
}

// DensityMap tracks cell usage per bin for spreading and the ISPD-2006
// density penalty.
type DensityMap struct {
	Grid     *Grid
	Usage    []float64 // movable + fixed area per bin
	Capacity []float64 // bin area * target density (fixed area removed)
}

// NewDensityMap builds a density map over an nx x ny bin grid; blockages
// reduce bin capacity, target scales the remaining free area. Bin counts
// below 1 are clamped to 1 (callers derive them from chip dimensions and a
// degenerate chip should still yield a usable one-bin map).
func NewDensityMap(chip geom.Rect, nx, ny int, blockages geom.RectSet, target float64) *DensityMap {
	if nx < 1 {
		nx = 1
	}
	if ny < 1 {
		ny = 1
	}
	g := MustNew(chip, nx, ny)
	m := &DensityMap{
		Grid:     g,
		Usage:    make([]float64, g.NumWindows()),
		Capacity: make([]float64, g.NumWindows()),
	}
	for w := 0; w < g.NumWindows(); w++ {
		bin := g.WindowRect(w)
		blocked := blockages.Clip(bin).Area()
		m.Capacity[w] = (bin.Area() - blocked) * target
	}
	return m
}

// Accumulate adds the movable cells of the netlist to the usage map,
// spreading each cell's area over the bins it overlaps.
func (m *DensityMap) Accumulate(n *netlist.Netlist) {
	for i := range m.Usage {
		m.Usage[i] = 0
	}
	for i := range n.Cells {
		if n.Cells[i].Fixed {
			continue
		}
		m.AddRect(n.CellRect(netlist.CellID(i)))
	}
}

// AddRect spreads the rectangle's area over the overlapping bins.
func (m *DensityMap) AddRect(r geom.Rect) {
	r = r.Intersect(m.Grid.Chip)
	if r.Empty() {
		return
	}
	ix0, iy0 := m.Grid.Locate(geom.Point{X: r.Xlo + 1e-12, Y: r.Ylo + 1e-12})
	ix1, iy1 := m.Grid.Locate(geom.Point{X: r.Xhi - 1e-12, Y: r.Yhi - 1e-12})
	for iy := iy0; iy <= iy1; iy++ {
		for ix := ix0; ix <= ix1; ix++ {
			w := m.Grid.Index(ix, iy)
			m.Usage[w] += r.Intersect(m.Grid.Window(ix, iy)).Area()
		}
	}
}

// Overflow returns the total usage above capacity, summed over bins.
func (m *DensityMap) Overflow() float64 {
	total := 0.0
	for i := range m.Usage {
		if over := m.Usage[i] - m.Capacity[i]; over > 0 {
			total += over
		}
	}
	return total
}

// MaxDensity returns the maximum bin utilization (usage / raw bin area).
func (m *DensityMap) MaxDensity() float64 {
	max := 0.0
	for w := range m.Usage {
		a := m.Grid.WindowRect(w).Area()
		if a <= 0 {
			continue
		}
		if d := m.Usage[w] / a; d > max {
			max = d
		}
	}
	return max
}
