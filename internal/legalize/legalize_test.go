package legalize

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 20, Yhi: 10}

func TestLegalizeSimpleStack(t *testing.T) {
	n := netlist.New(chip, 1)
	// Three cells piled on the same spot.
	for i := 0; i < 3; i++ {
		id := n.AddCell(netlist.Cell{Width: 2, Height: 1})
		n.SetPos(id, geom.Point{X: 5, Y: 5})
	}
	res, err := Legalize(n, region.Decompose(chip, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	if res.Moved <= 0 {
		t.Fatal("expected movement")
	}
	// Cells on row centers.
	for i := range n.Cells {
		y := n.Y[i]
		if math.Abs(y-math.Floor(y)-0.5) > 1e-9 {
			t.Fatalf("cell %d not on a row center: y=%g", i, y)
		}
	}
}

func TestLegalizeKeepsLegalCellsNear(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 1})
	n.SetPos(a, geom.Point{X: 5, Y: 2.5})
	res, err := Legalize(n, region.Decompose(chip, nil), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Moved > 1e-9 {
		t.Fatalf("already-legal cell moved %g", res.Moved)
	}
}

func TestLegalizeAvoidsBlockage(t *testing.T) {
	n := netlist.New(chip, 1)
	m := n.AddCell(netlist.Cell{Width: 6, Height: 4, Fixed: true})
	n.SetPos(m, geom.Point{X: 10, Y: 5})
	var ids []netlist.CellID
	for i := 0; i < 20; i++ {
		id := n.AddCell(netlist.Cell{Width: 1.5, Height: 1})
		n.SetPos(id, geom.Point{X: 10, Y: 5}) // all inside the macro
		ids = append(ids, id)
	}
	if _, err := Legalize(n, region.Decompose(chip, nil), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	macro := n.CellRect(m)
	for _, id := range ids {
		if n.CellRect(id).Overlaps(macro) {
			t.Fatalf("cell %d overlaps the macro", id)
		}
	}
}

func TestLegalizeDensePacking(t *testing.T) {
	// 90% utilization: 180 unit cells in a 20x10 chip.
	n := netlist.New(chip, 1)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 180; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1})
		n.SetPos(id, geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 10})
	}
	if _, err := Legalize(n, region.Decompose(chip, nil), Options{}); err != nil {
		t.Fatal(err)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	for i := range n.Cells {
		if !chip.ContainsRect(n.CellRect(netlist.CellID(i))) {
			t.Fatalf("cell %d outside chip: %v", i, n.CellRect(netlist.CellID(i)))
		}
	}
}

func TestLegalizeFailsWhenFull(t *testing.T) {
	n := netlist.New(chip, 1)
	// 220 unit cells cannot fit into 200 area.
	for i := 0; i < 220; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1})
		n.SetPos(id, geom.Point{X: 10, Y: 5})
	}
	res, err := Legalize(n, region.Decompose(chip, nil), Options{})
	if err == nil {
		t.Fatal("overfull instance legalized")
	}
	if res.Failed < 20 {
		t.Fatalf("Failed = %d, want >= 20", res.Failed)
	}
}

func TestLegalizeAreaRestricted(t *testing.T) {
	n := netlist.New(chip, 1)
	var ids []netlist.CellID
	for i := 0; i < 10; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: 0})
		n.SetPos(id, geom.Point{X: 2, Y: 2})
		ids = append(ids, id)
	}
	allowed := geom.RectSet{{Xlo: 10, Ylo: 0, Xhi: 20, Yhi: 10}}
	d := region.Decompose(chip, []region.Movebound{{Name: "R", Kind: region.Inclusive, Area: allowed}})
	if _, err := Legalize(n, d, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if !allowed.ContainsRect(n.CellRect(id)) {
			t.Fatalf("cell %d left the allowed area: %v", id, n.CellRect(id))
		}
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
}

func TestLegalizeTallCellRejected(t *testing.T) {
	n := netlist.New(chip, 1)
	n.AddCell(netlist.Cell{Width: 1, Height: 3})
	if _, err := Legalize(n, region.Decompose(chip, nil), Options{}); err == nil {
		t.Fatal("multi-row cell accepted")
	}
}

// moveboundInstance is a 30-cell chip with one inclusive and one
// exclusive movebound, cells scattered at random.
func moveboundInstance(t *testing.T) (*netlist.Netlist, *region.Decomposition, []region.Movebound) {
	t.Helper()
	mbs := []region.Movebound{
		{Name: "L", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 8, Yhi: 10}}},
		{Name: "R", Kind: region.Exclusive, Area: geom.RectSet{{Xlo: 14, Ylo: 0, Xhi: 20, Yhi: 10}}},
	}
	norm, err := region.Normalize(chip, mbs)
	if err != nil {
		t.Fatal(err)
	}
	d := region.Decompose(chip, norm)
	n := netlist.New(chip, 1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		mb := netlist.NoMovebound
		switch {
		case i < 10:
			mb = 0
		case i < 16:
			mb = 1
		}
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: mb})
		n.SetPos(id, geom.Point{X: rng.Float64() * 20, Y: rng.Float64() * 10})
	}
	return n, d, norm
}

func TestLegalizeWithMovebounds(t *testing.T) {
	n, d, norm := moveboundInstance(t)
	if _, err := Legalize(n, d, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	if viol := region.CheckLegal(n, norm); viol != 0 {
		t.Fatalf("movebound violations = %d", viol)
	}
}

func TestLegalizeOverlappingMovebounds(t *testing.T) {
	// Overlapping inclusive movebounds: legalization must handle cells of
	// both movebounds in the shared region simultaneously (§III).
	mbs := []region.Movebound{
		{Name: "A", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 12, Yhi: 10}}},
		{Name: "B", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 0, Xhi: 20, Yhi: 10}}},
	}
	norm, err := region.Normalize(chip, mbs)
	if err != nil {
		t.Fatal(err)
	}
	d := region.Decompose(chip, norm)
	n := netlist.New(chip, 1)
	// Crowd both movebounds into the overlap zone.
	for i := 0; i < 40; i++ {
		mb := i % 2
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: mb})
		n.SetPos(id, geom.Point{X: 10, Y: 5})
	}
	if _, err := Legalize(n, d, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	if viol := region.CheckLegal(n, norm); viol != 0 {
		t.Fatalf("movebound violations = %d", viol)
	}
}

func TestVerifyNoOverlapsDetects(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 1})
	b := n.AddCell(netlist.Cell{Width: 2, Height: 1})
	n.SetPos(a, geom.Point{X: 5, Y: 5})
	n.SetPos(b, geom.Point{X: 5.5, Y: 5})
	if got := VerifyNoOverlaps(n); got != 1 {
		t.Fatalf("overlaps = %d, want 1", got)
	}
	n.SetPos(b, geom.Point{X: 7, Y: 5})
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d, want 0", got)
	}
}

// A condensed-engine failure in the movebound partitioning falls back to
// the reference engine and is recorded on the run's degradation log, and
// the legalization still succeeds.
func TestLegalizeWithMoveboundsRecordsTransportFallback(t *testing.T) {
	defer faultsim.Reset()
	n, d, norm := moveboundInstance(t)
	if err := faultsim.Arm("transport.condensed.fail", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	dl := degrade.New(nil)
	_, err := Legalize(n, d, Options{Degrade: dl})
	faultsim.Disarm("transport.condensed.fail")
	if err != nil {
		t.Fatal(err)
	}
	evs := dl.Events()
	if len(evs) != 1 || evs[0].Stage != "transport.condensed" || evs[0].Fallback != "reference-engine" {
		t.Fatalf("degradations %+v, want one transport.condensed -> reference-engine", evs)
	}
	if got := VerifyNoOverlaps(n); got != 0 {
		t.Fatalf("overlaps = %d", got)
	}
	if viol := region.CheckLegal(n, norm); viol != 0 {
		t.Fatalf("movebound violations = %d", viol)
	}
}

// A canceled context reaches the movebound partitioning's transportation.
func TestLegalizeWithMoveboundsCanceled(t *testing.T) {
	n, d, _ := moveboundInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Legalize(n, d, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// bruteOverlaps counts the overlapping pairs by testing every pair: not
// both fixed, intersection area above 1e-6.
func bruteOverlaps(n *netlist.Netlist) int {
	count := 0
	for i := range n.Cells {
		for j := i + 1; j < len(n.Cells); j++ {
			if n.Cells[i].Fixed && n.Cells[j].Fixed {
				continue
			}
			ir := n.CellRect(netlist.CellID(i)).Intersect(n.CellRect(netlist.CellID(j)))
			if !ir.Empty() && ir.Area() > 1e-6 {
				count++
			}
		}
	}
	return count
}

// TestVerifyNoOverlapsMatchesBruteForce compares the banded sweep with the
// all-pairs count on random layouts: standard cells on a row grid (many of
// them abutting exactly, some stacked or off-row), fixed macros spanning
// several rows that overlap each other and the cells, and cells partly
// outside the chip.
func TestVerifyNoOverlapsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	overlapped := 0
	for trial := 0; trial < 60; trial++ {
		area := geom.Rect{Xhi: float64(20 + rng.Intn(60)), Yhi: float64(10 + rng.Intn(40))}
		n := netlist.New(area, 1)
		for m := rng.Intn(5); m > 0; m-- {
			w, h := float64(2+rng.Intn(10)), float64(2+rng.Intn(10))
			id := n.AddCell(netlist.Cell{Width: w, Height: h, Fixed: true, Movebound: netlist.NoMovebound})
			n.SetPos(id, geom.Point{X: rng.Float64() * area.Xhi, Y: rng.Float64() * area.Yhi})
		}
		rows := int(area.Yhi)
		for c := 50 + rng.Intn(300); c > 0; c-- {
			w := float64(1 + rng.Intn(4))
			id := n.AddCell(netlist.Cell{Width: w, Height: 1, Movebound: netlist.NoMovebound})
			x := float64(rng.Intn(int(area.Xhi))) + w/2 // integer edges: exact abutment
			y := float64(rng.Intn(rows)) + 0.5
			switch rng.Intn(6) {
			case 0:
				x += rng.Float64() // off-grid
			case 1:
				y += rng.Float64() - 0.5 // off-row
			case 2:
				x -= 2 // may leave the chip
			}
			n.SetPos(id, geom.Point{X: x, Y: y})
		}
		want := bruteOverlaps(n)
		if got := VerifyNoOverlaps(n); got != want {
			t.Fatalf("trial %d: VerifyNoOverlaps = %d, brute force %d", trial, got, want)
		}
		if want > 0 {
			overlapped++
		}
	}
	if overlapped < 50 {
		t.Fatalf("only %d of 60 layouts overlap", overlapped)
	}
}
