package fbp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/geom"
	"fbplace/internal/grid"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
)

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 16, Yhi: 16}

// build returns WindowRegions for the chip with the given movebounds.
func build(t *testing.T, mbs []region.Movebound, nx, ny int, density float64, blockages geom.RectSet) *grid.WindowRegions {
	t.Helper()
	var err error
	if len(mbs) > 0 {
		mbs, err = region.Normalize(chip, mbs)
		if err != nil {
			t.Fatal(err)
		}
	}
	d := region.Decompose(chip, mbs)
	return grid.BuildWindowRegions(grid.MustNew(chip, nx, ny), d, blockages, density)
}

// clusterNetlist places numCells unit cells at pos (a crowded corner).
func clusterNetlist(numCells int, pos geom.Point, mb int) *netlist.Netlist {
	n := netlist.New(chip, 1)
	for i := 0; i < numCells; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: mb})
		n.SetPos(id, pos)
	}
	return n
}

func TestFigure2EdgeSets(t *testing.T) {
	// One movebound covering the whole chip, 2x1 grid: per window and
	// class, the model must contain the four edge families of Figure 2.
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{chip}}}
	wr := build(t, mbs, 2, 1, 1.0, nil)
	n := clusterNetlist(4, geom.Point{X: 2, Y: 8}, 0)
	assign := wr.Grid.AssignCells(n)
	m := BuildModel(n, wr, assign)

	// Node count: 2 regions + per class per window 4 transits, plus one
	// cell group (all cells in window 0, class 0; class 1 = unbounded has
	// no cells). Class window ranges cover both windows for both classes.
	wantNodes := 2 + 2*2*4 + 1
	if m.Stats.NumNodes != wantNodes {
		t.Fatalf("NumNodes = %d, want %d", m.Stats.NumNodes, wantNodes)
	}
	// Arc count: per class per window: E^tt = 12; per admissible region:
	// E^tr = 4. Class M admissible everywhere, unbounded too (no
	// exclusives). Cell group (1): E^cr = 1 region in window, E^ct = 4.
	// External: 2 classes * 1 adjacency * 2 directions = 4.
	wantArcs := 2*2*12 + 2*2*4 + (1 + 4) + 4
	if m.Stats.NumArcs != wantArcs {
		t.Fatalf("NumArcs = %d, want %d", m.Stats.NumArcs, wantArcs)
	}
	if len(m.Externals) != 2 {
		t.Fatalf("external pairs = %d, want 2 (one per class)", len(m.Externals))
	}
}

func TestFigure3ExternalEdgesRestrictedToBBox(t *testing.T) {
	// Movebound M covers only the left half: its transit nodes (and thus
	// external edges) must not extend beyond the windows intersecting
	// A(M)'s bounding box.
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 8, Yhi: 16}}}}
	wr := build(t, mbs, 4, 1, 1.0, nil)
	n := clusterNetlist(4, geom.Point{X: 1, Y: 8}, 0)
	m := BuildModel(n, wr, wr.Grid.AssignCells(n))
	for _, e := range m.Externals {
		if e.Class != 0 {
			continue
		}
		fx, _ := wr.Grid.Coords(e.From)
		tx, _ := wr.Grid.Coords(e.To)
		if fx > 1 || tx > 1 {
			t.Fatalf("class-M external edge outside bbox windows: %d -> %d", e.From, e.To)
		}
	}
	// The unbounded class spans the whole grid: 3 adjacencies.
	unbounded := 0
	for _, e := range m.Externals {
		if e.Class == 1 {
			unbounded++
		}
	}
	if unbounded != 3 {
		t.Fatalf("unbounded external pairs = %d, want 3", unbounded)
	}
}

func TestPartitionSpreadsOverloadedWindow(t *testing.T) {
	// 4x4 grid, 300 unit cells crammed into one corner window of capacity
	// 16: partitioning must spread them so every region respects its
	// capacity (up to rounding of split cells).
	wr := build(t, nil, 4, 4, 1.0, nil)
	n := clusterNetlist(240, geom.Point{X: 1, Y: 1}, netlist.NoMovebound)
	res, err := Partition(n, wr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	usage := make(map[RegionRef]float64)
	for i := range n.Cells {
		ref := res.CellRegion[i]
		if ref.Window < 0 {
			t.Fatalf("cell %d unassigned", i)
		}
		usage[ref] += n.Cells[i].Size()
	}
	for ref, u := range usage {
		c := wr.PerWin[ref.Window][ref.Index].Capacity
		if u > c+2.0 { // one rounded cell of slack
			t.Fatalf("region %v overfilled: %g > %g", ref, u, c)
		}
	}
	// Positions must lie inside the assigned regions.
	for i := range n.Cells {
		ref := res.CellRegion[i]
		rs := wr.PerWin[ref.Window][ref.Index].Rects
		if !rs.Contains(n.Pos(netlist.CellID(i))) {
			t.Fatalf("cell %d at %v outside its region", i, n.Pos(netlist.CellID(i)))
		}
	}
	if res.Stats.NumExternals == 0 {
		t.Fatal("expected flow-carrying external edges for an overloaded corner")
	}
}

func TestPartitionRespectsMovebounds(t *testing.T) {
	// Movebound M is the right half; its cells start in the left half.
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 0, Xhi: 16, Yhi: 16}}}}
	wr := build(t, mbs, 4, 4, 1.0, nil)
	n := netlist.New(chip, 1)
	for i := 0; i < 40; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: 0})
		n.SetPos(id, geom.Point{X: 2, Y: 8})
	}
	for i := 0; i < 40; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
		n.SetPos(id, geom.Point{X: 2, Y: 8})
	}
	res, err := Partition(n, wr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Cells {
		ref := res.CellRegion[i]
		reg := wr.PerWin[ref.Window][ref.Index]
		if !wr.Decomp.Admissible(n.Cells[i].Movebound, reg.Region) {
			t.Fatalf("cell %d (mb %d) assigned to inadmissible region", i, n.Cells[i].Movebound)
		}
		if n.Cells[i].Movebound == 0 && n.X[i] < 8 {
			t.Fatalf("movebound cell %d left at x=%g", i, n.X[i])
		}
	}
}

func TestPartitionExclusiveMovebound(t *testing.T) {
	// Exclusive movebound in the center: unbounded cells must not be
	// assigned into it even when space is tight elsewhere.
	mbs := []region.Movebound{{Name: "X", Kind: region.Exclusive, Area: geom.RectSet{{Xlo: 4, Ylo: 4, Xhi: 12, Yhi: 12}}}}
	wr := build(t, mbs, 4, 4, 1.0, nil)
	n := netlist.New(chip, 1)
	for i := 0; i < 30; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: 0})
		n.SetPos(id, geom.Point{X: 8, Y: 8})
	}
	for i := 0; i < 120; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
		n.SetPos(id, geom.Point{X: 8, Y: 8})
	}
	res, err := Partition(n, wr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	excl := geom.Rect{Xlo: 4, Ylo: 4, Xhi: 12, Yhi: 12}
	for i := range n.Cells {
		reg := wr.PerWin[res.CellRegion[i].Window][res.CellRegion[i].Index]
		inX := wr.Decomp.Regions[reg.Region].Blocked
		if n.Cells[i].Movebound == netlist.NoMovebound && inX {
			t.Fatalf("unbounded cell %d assigned into exclusive region", i)
		}
		if n.Cells[i].Movebound == 0 && !excl.Contains(n.Pos(netlist.CellID(i))) {
			t.Fatalf("X cell %d placed at %v outside the exclusive area", i, n.Pos(netlist.CellID(i)))
		}
	}
}

func TestPartitionInfeasibleDetected(t *testing.T) {
	// Movebound too small for its cells: Theorem 3 says the MCF must be
	// infeasible and the error reported (never silently violated).
	mbs := []region.Movebound{{Name: "S", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 4, Yhi: 4}}}}
	wr := build(t, mbs, 4, 4, 1.0, nil)
	n := clusterNetlist(20, geom.Point{X: 2, Y: 2}, 0) // 20 area > 16
	_, err := Partition(n, wr, DefaultConfig())
	var inf *ErrInfeasible
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if inf.Unrouted < 3.9 {
		t.Fatalf("unrouted = %g, want ~4", inf.Unrouted)
	}
}

func TestPartitionGuaranteeAnyStartingPlacement(t *testing.T) {
	// Theorem 3 + realization guarantee: a feasible partitioning is found
	// for arbitrary (even adversarial) starting placements.
	rng := rand.New(rand.NewSource(17))
	mbs := []region.Movebound{
		{Name: "A", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 8, Yhi: 8}}},
		{Name: "B", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 4, Ylo: 4, Xhi: 16, Yhi: 16}}},
	}
	for trial := 0; trial < 5; trial++ {
		wr := build(t, mbs, 4, 4, 1.0, nil)
		n := netlist.New(chip, 1)
		for i := 0; i < 100; i++ {
			mb := rng.Intn(3) - 1
			id := n.AddCell(netlist.Cell{Width: 0.5 + rng.Float64(), Height: 1, Movebound: mb})
			// Adversarial: anywhere, including outside the movebound.
			n.SetPos(id, geom.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16})
		}
		res, err := Partition(n, wr, DefaultConfig())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range n.Cells {
			ref := res.CellRegion[i]
			if ref.Window < 0 {
				t.Fatalf("trial %d: cell %d unassigned", trial, i)
			}
			reg := wr.PerWin[ref.Window][ref.Index]
			if !wr.Decomp.Admissible(n.Cells[i].Movebound, reg.Region) {
				t.Fatalf("trial %d: inadmissible assignment", trial)
			}
		}
	}
}

func TestPartitionDeterministicAcrossWorkers(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 0, Xhi: 16, Yhi: 16}}}}
	rng := rand.New(rand.NewSource(5))
	base := netlist.New(chip, 1)
	for i := 0; i < 150; i++ {
		mb := netlist.NoMovebound
		if i%3 == 0 {
			mb = 0
		}
		id := base.AddCell(netlist.Cell{Width: 0.5 + rng.Float64(), Height: 1, Movebound: mb})
		base.SetPos(id, geom.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16})
	}
	for e := 0; e < 100; e++ {
		i, j := rng.Intn(150), rng.Intn(150)
		if i != j {
			base.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: netlist.CellID(i)}, {Cell: netlist.CellID(j)}}})
		}
	}
	run := func(workers int) ([]RegionRef, []float64) {
		n := base.Clone()
		wr := build(t, mbs, 4, 4, 1.0, nil)
		cfg := DefaultConfig()
		cfg.Workers = workers
		res, err := Partition(n, wr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.CellRegion, append(append([]float64(nil), n.X...), n.Y...)
	}
	r1, p1 := run(1)
	r8, p8 := run(8)
	for i := range r1 {
		if r1[i] != r8[i] {
			t.Fatalf("cell %d: assignment differs between 1 and 8 workers: %v vs %v", i, r1[i], r8[i])
		}
	}
	for i := range p1 {
		if math.Abs(p1[i]-p8[i]) > 1e-9 {
			t.Fatalf("position %d differs: %g vs %g", i, p1[i], p8[i])
		}
	}
}

// TestRepairPathDeterministicAcrossWorkers drives an overfull instance —
// crowded irregular cells against a tight movebound — so majority rounding
// overflows regions and repairOverflow has to relocate cells. The repair
// bookkeeping is keyed through maps (usage/cellsOf); this test pins down
// that its results never depend on map hashing or on the worker count:
// assignments, positions, the RoundingOverflow diagnostic and the number
// of repair moves must be identical for 1 and 4 workers.
func TestRepairPathDeterministicAcrossWorkers(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 7, Yhi: 7}}}}
	rng := rand.New(rand.NewSource(17))
	base := netlist.New(chip, 1)
	const numCells = 230
	for i := 0; i < numCells; i++ {
		mb := netlist.NoMovebound
		if i%5 == 0 {
			mb = 0
		}
		id := base.AddCell(netlist.Cell{Width: 0.3 + 1.4*rng.Float64(), Height: 1, Movebound: mb})
		base.SetPos(id, geom.Point{X: rng.Float64() * 16, Y: rng.Float64() * 16})
	}
	for e := 0; e < 200; e++ {
		i, j := rng.Intn(numCells), rng.Intn(numCells)
		if i != j {
			base.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: netlist.CellID(i)}, {Cell: netlist.CellID(j)}}})
		}
	}
	type outcome struct {
		regions  []RegionRef
		pos      []float64
		overflow float64
		moved    float64
	}
	run := func(workers int) outcome {
		n := base.Clone()
		wr := build(t, mbs, 4, 4, 1.0, nil)
		rec := obs.New(nil)
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Obs = rec
		res, err := Partition(n, wr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return outcome{
			regions:  res.CellRegion,
			pos:      append(append([]float64(nil), n.X...), n.Y...),
			overflow: res.RoundingOverflow,
			moved:    rec.Counter("fbp.repair.movedCells"),
		}
	}
	o1 := run(1)
	o4 := run(4)
	if o1.moved == 0 {
		t.Fatal("repair path not exercised: no cells moved by repairOverflow; tighten the instance")
	}
	if o1.moved != o4.moved {
		t.Fatalf("repair moves differ: %v (1 worker) vs %v (4 workers)", o1.moved, o4.moved)
	}
	if o1.overflow != o4.overflow {
		t.Fatalf("RoundingOverflow differs: %g vs %g", o1.overflow, o4.overflow)
	}
	for i := range o1.regions {
		if o1.regions[i] != o4.regions[i] {
			t.Fatalf("cell %d: assignment differs between 1 and 4 workers: %v vs %v", i, o1.regions[i], o4.regions[i])
		}
	}
	for i := range o1.pos {
		if o1.pos[i] != o4.pos[i] {
			t.Fatalf("position %d differs: %g vs %g", i, o1.pos[i], o4.pos[i])
		}
	}
}

func TestPartitionFeasibleStartStaysPut(t *testing.T) {
	// Cells evenly spread well under capacity: no external flow should be
	// needed and cells stay in their windows.
	wr := build(t, nil, 4, 4, 1.0, nil)
	n := netlist.New(chip, 1)
	for iy := 0; iy < 4; iy++ {
		for ix := 0; ix < 4; ix++ {
			id := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
			n.SetPos(id, geom.Point{X: float64(ix)*4 + 2, Y: float64(iy)*4 + 2})
		}
	}
	res, err := Partition(n, wr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumExternals != 0 {
		t.Fatalf("NumExternals = %d, want 0", res.Stats.NumExternals)
	}
	for i := range n.Cells {
		want := wr.Grid.LocateIndex(geom.Point{X: float64(i%4)*4 + 2, Y: float64(i/4)*4 + 2})
		if int(res.CellRegion[i].Window) != want {
			t.Fatalf("cell %d moved to window %d, want %d", i, res.CellRegion[i].Window, want)
		}
	}
}

func TestPartitionWithBlockages(t *testing.T) {
	// A macro blocks the center; cells crowded next to it must flow
	// around it.
	blk := geom.RectSet{{Xlo: 4, Ylo: 4, Xhi: 12, Yhi: 12}}
	wr := build(t, nil, 4, 4, 1.0, blk)
	n := clusterNetlist(100, geom.Point{X: 2, Y: 2}, netlist.NoMovebound)
	res, err := Partition(n, wr, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range n.Cells {
		if res.CellRegion[i].Window < 0 {
			t.Fatalf("cell %d unassigned", i)
		}
	}
}

func TestModelSizeLinearInWindows(t *testing.T) {
	// |V| and |E| grow linearly with |W| + |R| (paper Table I): doubling
	// the grid in each dimension must roughly quadruple nodes and arcs,
	// never more than a constant factor of the window count.
	n := clusterNetlist(64, geom.Point{X: 8, Y: 8}, netlist.NoMovebound)
	var prevNodes int
	for _, k := range []int{2, 4, 8} {
		wr := build(t, nil, k, k, 1.0, nil)
		m := BuildModel(n, wr, wr.Grid.AssignCells(n))
		ratio := float64(m.Stats.NumArcs) / float64(m.Stats.NumNodes)
		if ratio > 8 {
			t.Fatalf("grid %dx%d: |E|/|V| = %.1f, want bounded", k, k, ratio)
		}
		if prevNodes > 0 && m.Stats.NumNodes > prevNodes*5 {
			t.Fatalf("node growth superlinear: %d -> %d", prevNodes, m.Stats.NumNodes)
		}
		prevNodes = m.Stats.NumNodes
	}
}

// TestSolveStallIsError arms the simplex stall: Solve returns the
// *flow.ErrStalled as the level's error (there is no SSP retry), and the
// fbp.solve span still reports the size of the model that was built.
func TestSolveStallIsError(t *testing.T) {
	defer faultsim.Reset()
	if err := faultsim.Arm("flow.ns.stall", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	wr := build(t, nil, 4, 4, 1.0, nil)
	n := clusterNetlist(64, geom.Point{X: 2, Y: 2}, netlist.NoMovebound)
	m := BuildModel(n, wr, wr.Grid.AssignCells(n))
	var buf bytes.Buffer
	m.Obs = obs.New(obs.NewJSONSink(&buf))
	var stalled *flow.ErrStalled
	if err := m.Solve(); !errors.As(err, &stalled) {
		t.Fatalf("Solve = %v, want *flow.ErrStalled", err)
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Type != obs.EventSpan || e.Name != "fbp.solve" {
			continue
		}
		if e.Attrs["nodes"] != float64(m.Stats.NumNodes) || e.Attrs["arcs"] != float64(m.Stats.NumArcs) {
			t.Fatalf("fbp.solve span reports %v nodes, %v arcs; model has %d, %d",
				e.Attrs["nodes"], e.Attrs["arcs"], m.Stats.NumNodes, m.Stats.NumArcs)
		}
		return
	}
	t.Fatal("no fbp.solve span in the trace")
}

// TestCollapseShare partitions hand-built 2x2 instances: windows holding
// 10/10/10/70 units of area (mean 25, so only the 70 is above twice the
// mean) give a collapse share of 0.7, an even spread gives 0. Both the
// fbp.build span attribute and the fbp.collapse_share gauge report it.
func TestCollapseShare(t *testing.T) {
	centers := []geom.Point{{X: 4, Y: 4}, {X: 12, Y: 4}, {X: 4, Y: 12}, {X: 12, Y: 12}}
	for _, tc := range []struct {
		counts []int
		want   float64
	}{
		{[]int{10, 10, 10, 70}, 0.7},
		{[]int{25, 25, 25, 25}, 0},
	} {
		wr := build(t, nil, 2, 2, 1.0, nil)
		n := netlist.New(chip, 1)
		for w, c := range tc.counts {
			for i := 0; i < c; i++ {
				n.SetPos(n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound}), centers[w])
			}
		}
		var buf bytes.Buffer
		cfg := DefaultConfig()
		cfg.Obs = obs.New(obs.NewJSONSink(&buf))
		if _, err := Partition(n, wr, cfg); err != nil {
			t.Fatal(err)
		}
		if got := cfg.Obs.Gauges()["fbp.collapse_share"]; got != tc.want {
			t.Errorf("counts %v: gauge fbp.collapse_share %g, want %g", tc.counts, got, tc.want)
		}
		events, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range events {
			if e.Type == obs.EventSpan && e.Name == "fbp.build" {
				found = true
				if got, ok := e.Attrs["collapse_share"]; !ok || got != tc.want {
					t.Errorf("counts %v: fbp.build collapse_share %g (set %v), want %g", tc.counts, got, ok, tc.want)
				}
			}
		}
		if !found {
			t.Fatalf("counts %v: no fbp.build span in the trace", tc.counts)
		}
	}
}

func TestFigure4RealizationTrace(t *testing.T) {
	// Figure 4: a 2x2 grid with one overloaded window; after the MCF
	// solve there is at least one flow-carrying external edge, and after
	// realization all windows respect capacity.
	wr := build(t, nil, 2, 2, 1.0, nil)
	n := clusterNetlist(80, geom.Point{X: 4, Y: 4}, netlist.NoMovebound)
	assign := wr.Grid.AssignCells(n)
	m := BuildModel(n, wr, assign)
	if err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	if m.Stats.NumExternals == 0 {
		t.Fatal("no flow-carrying external edges")
	}
	res, err := Realize(m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	winLoad := make([]float64, 4)
	for i := range n.Cells {
		winLoad[res.CellRegion[i].Window] += n.Cells[i].Size()
	}
	for w, load := range winLoad {
		if load > wr.WindowCapacity(w)+2 {
			t.Fatalf("window %d overloaded after realization: %g > %g", w, load, wr.WindowCapacity(w))
		}
	}
}

// TestOccupancyCoversEveryWave checks that the fbp.occupancy gauge is the
// busy share of worker capacity over every wave of every Realize call on
// the recorder, not the last wave's value.
func TestOccupancyCoversEveryWave(t *testing.T) {
	rec := obs.New(nil)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Obs = rec
	capacity := 0.0
	for call := 1; call <= 2; call++ {
		wr := build(t, nil, 4, 4, 1.0, nil)
		n := clusterNetlist(240, geom.Point{X: 1, Y: 1}, netlist.NoMovebound)
		m := BuildModel(n, wr, wr.Grid.AssignCells(n))
		if err := m.Solve(); err != nil {
			t.Fatal(err)
		}
		if _, err := Realize(m, cfg); err != nil {
			t.Fatal(err)
		}
		busy, c := rec.Counter("fbp.wave_busy_s"), rec.Counter("fbp.wave_capacity_s")
		if busy <= 0 || c <= capacity {
			t.Fatalf("call %d: wave counters busy %g s, capacity %g s (was %g s)", call, busy, c, capacity)
		}
		capacity = c
		if got := rec.Gauges()["fbp.occupancy"]; got != busy/c {
			t.Fatalf("call %d: fbp.occupancy = %g, want busy/capacity = %g", call, got, busy/c)
		}
	}
}

func TestDirName(t *testing.T) {
	want := []string{"N", "E", "S", "W"}
	for d, s := range want {
		if DirName(d) != s {
			t.Fatalf("DirName(%d) = %s", d, DirName(d))
		}
	}
}

func TestWrapUnitErr(t *testing.T) {
	if wrapUnitErr(3, "realize", nil) != nil {
		t.Fatal("nil error was wrapped")
	}
	// Context errors pass through unwrapped so callers can match them
	// with errors.Is against the context sentinels.
	if got := wrapUnitErr(3, "realize", context.Canceled); got != context.Canceled {
		t.Fatalf("context error was wrapped: %v", got)
	}
	plain := errors.New("transport blew up")
	err := wrapUnitErr(7, "final", plain)
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Window != 7 || ue.Phase != "final" || !errors.Is(err, plain) {
		t.Fatalf("wrapped error lost identity: %+v", err)
	}
	// Re-wrapping an already attributed error must not stack windows.
	if again := wrapUnitErr(9, "realize", err); again != err {
		t.Fatalf("UnitError was double-wrapped: %v", again)
	}
}
