package fbp

import (
	"context"
	"errors"
	"math"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
)

// A recursive-mode window whose cells do not fit its regions takes
// overflow in its one elastic transportation and counts one relaxation; a
// window that fits counts none. The run's context reaches the solve.
func TestRecursiveWindowOverflowCountsOneRelaxation(t *testing.T) {
	area := geom.Rect{Xlo: 0, Ylo: 0, Xhi: 16, Yhi: 16}
	n := netlist.New(area, 1)
	place := func(count int, at geom.Point) {
		for i := 0; i < count; i++ {
			id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
			n.SetPos(id, at)
		}
	}
	place(100, geom.Point{X: 2, Y: 2})  // window 0: area 100, capacity 64
	place(10, geom.Point{X: 12, Y: 12}) // window 3: fits
	g, err := grid.New(area, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wr := grid.BuildWindowRegions(g, region.Decompose(area, nil), nil, 1)
	rec := obs.New(nil)
	relax, err := PartitionLocal(n.Clone(), wr, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if relax != 1 {
		t.Fatalf("relaxations = %d, want 1", relax)
	}
	if got := rec.Counter("transport.overflow_solves"); got != 1 {
		t.Fatalf("transport.overflow_solves = %v, want 1", got)
	}
	if got := rec.Counter("transport.overflow"); math.Abs(got-36) > 1e-6 {
		t.Fatalf("transport.overflow = %v, want 36", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionLocal(n.Clone(), wr, Config{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The recursive baseline runs its windows on the realization worker pool,
// so its positions and relaxation count must not depend on the worker
// count. The instance needs both kinds of relaxation: movebound cells
// outside the movebound's windows escape, and the crowded windows
// overflow.
func TestPartitionLocalDeterministicAcrossWorkers(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 0, Xhi: 16, Yhi: 16}}}}
	base := crowdedNetlist(5, 210)
	wr := build(t, mbs, 4, 4, 1.0, nil)
	run := func(workers int) (int, *netlist.Netlist, *obs.Recorder) {
		n := base.Clone()
		rec := obs.New(nil)
		relax, err := PartitionLocal(n, wr, Config{Workers: workers, Obs: rec})
		if err != nil {
			t.Fatal(err)
		}
		return relax, n, rec
	}
	relax1, n1, rec := run(1)
	relax4, n4, _ := run(4)
	if over := rec.Counter("transport.overflow_solves"); over == 0 || float64(relax1) <= over {
		t.Fatalf("relaxations %d with %v overflowing windows; want escapes and overflows", relax1, over)
	}
	if relax1 != relax4 {
		t.Fatalf("relaxations differ: %d (1 worker) vs %d (4 workers)", relax1, relax4)
	}
	for i := range n1.X {
		if math.Float64bits(n1.X[i]) != math.Float64bits(n4.X[i]) || math.Float64bits(n1.Y[i]) != math.Float64bits(n4.Y[i]) {
			t.Fatalf("cell %d: (%g, %g) with 1 worker, (%g, %g) with 4", i, n1.X[i], n1.Y[i], n4.X[i], n4.Y[i])
		}
	}
}

// A recursive-mode cell in a window without capacity escapes to the
// nearest region that fits it. That nearest point lies on the region
// window's right edge, which LocateIndex assigns to the blocked window
// next door; the escaped cell must land inside the region's own window,
// or that window's transportation has no admissible sink for it.
func TestEscapeLandsInsideTheRegionWindow(t *testing.T) {
	area := geom.Rect{Xlo: 0, Ylo: 0, Xhi: 30, Yhi: 10}
	n := netlist.New(area, 1)
	for i := 0; i < 10; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
		n.SetPos(id, geom.Point{X: 25, Y: 5})
	}
	g, err := grid.New(area, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	blocked := geom.RectSet{{Xlo: 10, Ylo: 0, Xhi: 30, Yhi: 10}} // windows 1 and 2
	wr := grid.BuildWindowRegions(g, region.Decompose(area, nil), blocked, 1)
	relax, err := PartitionLocal(n, wr, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if relax != 10 {
		t.Fatalf("relaxations = %d, want 10 escaped cells", relax)
	}
	for i := range n.Cells {
		if w := g.LocateIndex(n.Pos(netlist.CellID(i))); w != 0 {
			t.Fatalf("cell %d at %v in window %d, want 0", i, n.Pos(netlist.CellID(i)), w)
		}
	}
}
