package netlist

import (
	"math"
	"testing"

	"fbplace/internal/geom"
)

func twoCellNetlist() (*Netlist, CellID, CellID) {
	n := New(geom.Rect{Xlo: 0, Ylo: 0, Xhi: 100, Yhi: 100}, 1)
	a := n.AddCell(Cell{Name: "a", Width: 2, Height: 1, Movebound: NoMovebound})
	b := n.AddCell(Cell{Name: "b", Width: 4, Height: 1, Movebound: NoMovebound})
	return n, a, b
}

func TestAddCellStartsAtCenter(t *testing.T) {
	n, a, _ := twoCellNetlist()
	if n.Pos(a) != (geom.Point{X: 50, Y: 50}) {
		t.Fatalf("initial pos = %v", n.Pos(a))
	}
}

func TestCellRect(t *testing.T) {
	n, a, _ := twoCellNetlist()
	n.SetPos(a, geom.Point{X: 10, Y: 20})
	want := geom.Rect{Xlo: 9, Ylo: 19.5, Xhi: 11, Yhi: 20.5}
	if got := n.CellRect(a); got != want {
		t.Fatalf("CellRect = %v, want %v", got, want)
	}
}

func TestHPWLTwoPin(t *testing.T) {
	n, a, b := twoCellNetlist()
	n.SetPos(a, geom.Point{X: 0, Y: 0})
	n.SetPos(b, geom.Point{X: 3, Y: 4})
	n.AddNet(Net{Pins: []Pin{{Cell: a}, {Cell: b}}})
	if got := n.HPWL(); math.Abs(got-7) > 1e-12 {
		t.Fatalf("HPWL = %v, want 7", got)
	}
}

func TestHPWLWeightAndOffsets(t *testing.T) {
	n, a, b := twoCellNetlist()
	n.SetPos(a, geom.Point{X: 0, Y: 0})
	n.SetPos(b, geom.Point{X: 10, Y: 0})
	n.AddNet(Net{Weight: 2, Pins: []Pin{
		{Cell: a, Offset: geom.Point{X: 1, Y: 0}},
		{Cell: b, Offset: geom.Point{X: -1, Y: 0.5}},
	}})
	// Span x: from 1 to 9 = 8; span y: 0 to 0.5.
	if got := n.HPWL(); math.Abs(got-2*8.5) > 1e-12 {
		t.Fatalf("HPWL = %v, want 17", got)
	}
}

func TestHPWLPadPins(t *testing.T) {
	n, a, _ := twoCellNetlist()
	n.SetPos(a, geom.Point{X: 5, Y: 5})
	n.AddNet(Net{Pins: []Pin{
		{Cell: a},
		{Cell: -1, Offset: geom.Point{X: 0, Y: 0}}, // pad at origin
	}})
	if got := n.HPWL(); math.Abs(got-10) > 1e-12 {
		t.Fatalf("HPWL = %v, want 10", got)
	}
}

func TestHPWLSinglePinNetIsZero(t *testing.T) {
	n, a, _ := twoCellNetlist()
	n.AddNet(Net{Pins: []Pin{{Cell: a}}})
	if got := n.HPWL(); got != 0 {
		t.Fatalf("HPWL = %v, want 0", got)
	}
}

func TestDefaultNetWeightIsOne(t *testing.T) {
	n, a, b := twoCellNetlist()
	id := n.AddNet(Net{Pins: []Pin{{Cell: a}, {Cell: b}}})
	if n.Nets[id].Weight != 1 {
		t.Fatalf("weight = %v", n.Nets[id].Weight)
	}
}

func TestTotalMovableAreaSkipsFixed(t *testing.T) {
	n, _, _ := twoCellNetlist()
	n.AddCell(Cell{Name: "macro", Width: 10, Height: 10, Fixed: true})
	if got := n.TotalMovableArea(); got != 2+4 {
		t.Fatalf("TotalMovableArea = %v, want 6", got)
	}
}

func TestFixedRectsClippedToArea(t *testing.T) {
	n := New(geom.Rect{Xlo: 0, Ylo: 0, Xhi: 10, Yhi: 10}, 1)
	m := n.AddCell(Cell{Name: "m", Width: 6, Height: 6, Fixed: true})
	n.SetPos(m, geom.Point{X: 9, Y: 5}) // sticks out to the right
	rs := n.FixedRects()
	if len(rs) != 1 {
		t.Fatalf("got %d fixed rects", len(rs))
	}
	if rs[0].Xhi != 10 {
		t.Fatalf("fixed rect not clipped: %v", rs[0])
	}
}

func TestMovableIDs(t *testing.T) {
	n, a, b := twoCellNetlist()
	n.AddCell(Cell{Name: "f", Width: 1, Height: 1, Fixed: true})
	ids := n.MovableIDs()
	if len(ids) != 2 || ids[0] != a || ids[1] != b {
		t.Fatalf("MovableIDs = %v", ids)
	}
}

func TestCloneIsDeep(t *testing.T) {
	n, a, b := twoCellNetlist()
	n.AddNet(Net{Pins: []Pin{{Cell: a}, {Cell: b}}})
	cp := n.Clone()
	cp.SetPos(a, geom.Point{X: 1, Y: 1})
	cp.Nets[0].Pins[0].Offset = geom.Point{X: 9, Y: 9}
	cp.Cells[0].Width = 99
	if n.Pos(a) == (geom.Point{X: 1, Y: 1}) {
		t.Fatal("clone shares positions")
	}
	if n.Nets[0].Pins[0].Offset == (geom.Point{X: 9, Y: 9}) {
		t.Fatal("clone shares pins")
	}
	if n.Cells[0].Width == 99 {
		t.Fatal("clone shares cells")
	}
}

func TestValidate(t *testing.T) {
	n, a, b := twoCellNetlist()
	n.AddNet(Net{Pins: []Pin{{Cell: a}, {Cell: b}}})
	if err := n.Validate(0); err != nil {
		t.Fatalf("valid netlist rejected: %v", err)
	}
	bad := n.Clone()
	bad.Cells[0].Width = 0
	if err := bad.Validate(0); err == nil {
		t.Fatal("zero-width cell accepted")
	}
	bad = n.Clone()
	bad.Nets[0].Pins[0].Cell = 99
	if err := bad.Validate(0); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	bad = n.Clone()
	bad.Cells[0].Movebound = 3
	if err := bad.Validate(2); err == nil {
		t.Fatal("out-of-range movebound accepted")
	}
	ok := n.Clone()
	ok.Cells[0].Movebound = 1
	if err := ok.Validate(2); err != nil {
		t.Fatalf("in-range movebound rejected: %v", err)
	}
}
