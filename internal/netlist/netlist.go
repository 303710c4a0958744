// Package netlist provides the circuit model of the placer: cells, pads,
// nets with pins, positions, and the half-perimeter wirelength (HPWL)
// objective the paper reports in every experiment table.
//
// The representation is index-based: cells and nets are identified by dense
// integer IDs, and coordinates live in flat slices, so that quadratic
// placement and partitioning on millions of cells avoid per-object pointer
// chasing.
package netlist

import (
	"fmt"
	"math"
	"sync"

	"fbplace/internal/geom"
)

// CellID identifies a cell within its Netlist.
type CellID int32

// NetID identifies a net within its Netlist.
type NetID int32

// NoMovebound marks a cell that may be placed anywhere on the chip.
const NoMovebound = -1

// Cell is a rectangular circuit element. Movable cells are placed by the
// placer; fixed cells (macros, pre-placed blocks) act as blockages and as
// anchors for the quadratic program.
type Cell struct {
	Name   string
	Width  float64
	Height float64
	Fixed  bool
	// Movebound is the index of the movebound the cell is assigned to,
	// or NoMovebound. Assignment lives here (rather than in a side map)
	// because nearly every placer stage consults it.
	Movebound int
}

// Size returns the cell area, the "size(c)" of the paper.
func (c *Cell) Size() float64 { return c.Width * c.Height }

// Pin is a connection point of a net. Exactly one of Cell >= 0 (a pin on a
// movable or fixed cell, at Offset from the cell center) or Cell < 0 (a
// fixed pad at absolute position Offset) holds.
type Pin struct {
	Cell   CellID
	Offset geom.Point
}

// IsPad reports whether the pin is a fixed chip-level pad.
func (p Pin) IsPad() bool { return p.Cell < 0 }

// Net is a set of electrically connected pins with a weight used by both
// the quadratic objective and HPWL reporting.
type Net struct {
	Name   string
	Weight float64
	Pins   []Pin
}

// Netlist is the full circuit: cells, nets, and the current placement.
// Positions are cell centers.
type Netlist struct {
	Cells []Cell
	Nets  []Net
	// X, Y hold the current center position of each cell, indexed by CellID.
	X, Y []float64
	// Area is the placement area (chip boundary).
	Area geom.Rect
	// RowHeight is the standard-cell row height used by legalization.
	RowHeight float64

	// idxMu guards idx, the lazily built cell -> incident-net index.
	// Structural mutation (AddCell/AddNet) invalidates it; position
	// updates do not (the index depends only on connectivity).
	idxMu sync.Mutex
	idx   *CellNetIndex // guarded by idxMu
}

// CellNetIndex is an immutable CSR index from cells to the nets they have
// pins on. Per cell the net IDs are ascending and deduplicated (a net with
// several pins on the same cell appears once). It exists so that the
// realization-local QP (paper §IV.B) can assemble its system by walking
// only the nets incident to a window block instead of scanning the whole
// netlist once per block.
type CellNetIndex struct {
	ptr  []int32 // len NumCells+1, row pointers into nets
	nets []NetID
}

// Nets returns the nets incident to cell c, ascending and deduplicated.
// The returned slice aliases the index; callers must not modify it.
func (ix *CellNetIndex) Nets(c CellID) []NetID { return ix.nets[ix.ptr[c]:ix.ptr[c+1]] }

// NetIndex returns the cell -> incident-net index, building it on first
// use. The build is O(total pins); the result is cached until the next
// structural mutation. Safe for concurrent callers: netlists are
// structurally immutable during placement, and the cache is guarded for
// the lazy first build racing between realization workers.
func (n *Netlist) NetIndex() *CellNetIndex {
	n.idxMu.Lock()
	defer n.idxMu.Unlock()
	if n.idx == nil {
		n.idx = buildCellNetIndex(n)
	}
	return n.idx
}

// invalidateIndex drops the cached incidence index after a structural
// mutation.
func (n *Netlist) invalidateIndex() {
	n.idxMu.Lock()
	n.idx = nil
	n.idxMu.Unlock()
}

func buildCellNetIndex(n *Netlist) *CellNetIndex {
	nc := len(n.Cells)
	ptr := make([]int32, nc+1)
	// last[c] = most recent net counted for c; nets are scanned in
	// ascending order, so repeated pins of one net on one cell are
	// adjacent and dedup needs no sorting.
	last := make([]int32, nc)
	for i := range last {
		last[i] = -1
	}
	for ni := range n.Nets {
		for _, p := range n.Nets[ni].Pins {
			if p.IsPad() || int(p.Cell) >= nc {
				continue
			}
			if last[p.Cell] == int32(ni) {
				continue
			}
			last[p.Cell] = int32(ni)
			ptr[p.Cell+1]++
		}
	}
	for i := 0; i < nc; i++ {
		ptr[i+1] += ptr[i]
	}
	nets := make([]NetID, ptr[nc])
	fill := make([]int32, nc)
	copy(fill, ptr[:nc])
	for i := range last {
		last[i] = -1
	}
	for ni := range n.Nets {
		for _, p := range n.Nets[ni].Pins {
			if p.IsPad() || int(p.Cell) >= nc {
				continue
			}
			if last[p.Cell] == int32(ni) {
				continue
			}
			last[p.Cell] = int32(ni)
			nets[fill[p.Cell]] = NetID(ni)
			fill[p.Cell]++
		}
	}
	return &CellNetIndex{ptr: ptr, nets: nets}
}

// New returns an empty netlist over the given chip area.
func New(area geom.Rect, rowHeight float64) *Netlist {
	return &Netlist{Area: area, RowHeight: rowHeight}
}

// AddCell appends a cell and returns its ID. The cell starts at the chip
// center.
func (n *Netlist) AddCell(c Cell) CellID {
	n.invalidateIndex()
	id := CellID(len(n.Cells))
	n.Cells = append(n.Cells, c)
	ctr := n.Area.Center()
	n.X = append(n.X, ctr.X)
	n.Y = append(n.Y, ctr.Y)
	return id
}

// AddNet appends a net and returns its ID. Nets with fewer than two pins
// are legal but contribute nothing to any objective.
func (n *Netlist) AddNet(net Net) NetID {
	n.invalidateIndex()
	if net.Weight == 0 {
		net.Weight = 1
	}
	id := NetID(len(n.Nets))
	n.Nets = append(n.Nets, net)
	return id
}

// NumCells returns the number of cells.
func (n *Netlist) NumCells() int { return len(n.Cells) }

// NumNets returns the number of nets.
func (n *Netlist) NumNets() int { return len(n.Nets) }

// Pos returns the center position of cell id.
func (n *Netlist) Pos(id CellID) geom.Point { return geom.Point{X: n.X[id], Y: n.Y[id]} }

// SetPos moves cell id's center to p.
func (n *Netlist) SetPos(id CellID, p geom.Point) { n.X[id], n.Y[id] = p.X, p.Y }

// CellRect returns the rectangle covered by cell id at its current
// position (the paper's A_{(x,y)}(c)).
func (n *Netlist) CellRect(id CellID) geom.Rect {
	c := &n.Cells[id]
	return geom.Rect{
		Xlo: n.X[id] - c.Width/2, Ylo: n.Y[id] - c.Height/2,
		Xhi: n.X[id] + c.Width/2, Yhi: n.Y[id] + c.Height/2,
	}
}

// PinPos returns the absolute position of a pin under the current
// placement.
func (n *Netlist) PinPos(p Pin) geom.Point {
	if p.IsPad() {
		return p.Offset
	}
	return geom.Point{X: n.X[p.Cell] + p.Offset.X, Y: n.Y[p.Cell] + p.Offset.Y}
}

// NetHPWL returns the weighted half-perimeter wirelength of one net.
func (n *Netlist) NetHPWL(id NetID) float64 {
	net := &n.Nets[id]
	if len(net.Pins) < 2 {
		return 0
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range net.Pins {
		pos := n.PinPos(p)
		minX = math.Min(minX, pos.X)
		maxX = math.Max(maxX, pos.X)
		minY = math.Min(minY, pos.Y)
		maxY = math.Max(maxY, pos.Y)
	}
	return net.Weight * ((maxX - minX) + (maxY - minY))
}

// HPWL returns the total weighted half-perimeter wirelength of the
// placement, the primary quality metric of all experiment tables.
func (n *Netlist) HPWL() float64 {
	total := 0.0
	for id := range n.Nets {
		total += n.NetHPWL(NetID(id))
	}
	return total
}

// TotalMovableArea returns size(C) restricted to movable cells.
func (n *Netlist) TotalMovableArea() float64 {
	total := 0.0
	for i := range n.Cells {
		if !n.Cells[i].Fixed {
			total += n.Cells[i].Size()
		}
	}
	return total
}

// FixedRects returns the rectangles of all fixed cells (blockages) clipped
// to the chip area.
func (n *Netlist) FixedRects() geom.RectSet {
	var out geom.RectSet
	for i := range n.Cells {
		if n.Cells[i].Fixed {
			r := n.CellRect(CellID(i)).Intersect(n.Area)
			if !r.Empty() {
				out = append(out, r)
			}
		}
	}
	return out
}

// MovableIDs returns the IDs of all movable cells.
func (n *Netlist) MovableIDs() []CellID {
	ids := make([]CellID, 0, len(n.Cells))
	for i := range n.Cells {
		if !n.Cells[i].Fixed {
			ids = append(ids, CellID(i))
		}
	}
	return ids
}

// Clone returns a deep copy of the netlist. Placement algorithms that are
// compared on the same instance (RQL vs FBP) each receive a clone.
func (n *Netlist) Clone() *Netlist {
	cp := &Netlist{
		Cells:     append([]Cell(nil), n.Cells...),
		Nets:      make([]Net, len(n.Nets)),
		X:         append([]float64(nil), n.X...),
		Y:         append([]float64(nil), n.Y...),
		Area:      n.Area,
		RowHeight: n.RowHeight,
	}
	for i, net := range n.Nets {
		cp.Nets[i] = Net{Name: net.Name, Weight: net.Weight, Pins: append([]Pin(nil), net.Pins...)}
	}
	return cp
}

// Validate checks structural invariants: pin cell IDs in range, positive
// cell dimensions, and movebound indices within [NoMovebound, maxMB).
func (n *Netlist) Validate(numMovebounds int) error {
	for i := range n.Cells {
		c := &n.Cells[i]
		// The negated comparison also catches NaN (NaN > 0 is false), which
		// `Width <= 0` would let through.
		if !(c.Width > 0) || !(c.Height > 0) || math.IsInf(c.Width, 1) || math.IsInf(c.Height, 1) {
			return fmt.Errorf("netlist: cell %d (%s) has non-positive or non-finite size %gx%g", i, c.Name, c.Width, c.Height)
		}
		if c.Movebound != NoMovebound && (c.Movebound < 0 || c.Movebound >= numMovebounds) {
			return fmt.Errorf("netlist: cell %d (%s) references movebound %d of %d", i, c.Name, c.Movebound, numMovebounds)
		}
	}
	for i := range n.Nets {
		for j, p := range n.Nets[i].Pins {
			if !p.IsPad() && int(p.Cell) >= len(n.Cells) {
				return fmt.Errorf("netlist: net %d pin %d references cell %d of %d", i, j, p.Cell, len(n.Cells))
			}
		}
	}
	if len(n.X) != len(n.Cells) || len(n.Y) != len(n.Cells) {
		return fmt.Errorf("netlist: position arrays have length %d/%d, want %d", len(n.X), len(n.Y), len(n.Cells))
	}
	return nil
}
