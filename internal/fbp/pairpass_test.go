package fbp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
)

// crowdedNetlist builds a connected, crowded instance: numCells random
// cells piled into the lower-left quarter with random two-pin nets.
func crowdedNetlist(seed int64, numCells int) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(chip, 1)
	for i := 0; i < numCells; i++ {
		mb := netlist.NoMovebound
		if i%4 == 0 {
			mb = 0
		}
		id := n.AddCell(netlist.Cell{Width: 0.4 + 0.8*rng.Float64(), Height: 1, Movebound: mb})
		n.SetPos(id, geom.Point{X: rng.Float64() * 6, Y: rng.Float64() * 6})
	}
	for e := 0; e < numCells; e++ {
		i, j := rng.Intn(numCells), rng.Intn(numCells)
		if i != j {
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: netlist.CellID(i)}, {Cell: netlist.CellID(j)}}})
		}
	}
	return n
}

// The pair pass must stay bit-identical across worker counts: within a
// wave the pair footprints (window + 4-neighborhood) are disjoint and all
// cross-footprint reads go through the wave snapshot, so scheduling must
// not leak into assignments or positions. Exercised on two instances with
// different movebound pressure.
func TestPairPassDeterministicAcrossWorkers(t *testing.T) {
	instances := []struct {
		name  string
		seed  int64
		cells int
		mbs   []region.Movebound
	}{
		{"open", 5, 170, []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 0, Xhi: 16, Yhi: 16}}}}},
		{"tight", 17, 210, []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 7, Yhi: 7}}}}},
	}
	for _, inst := range instances {
		t.Run(inst.name, func(t *testing.T) {
			base := crowdedNetlist(inst.seed, inst.cells)
			run := func(workers int) ([]RegionRef, []float64, float64) {
				n := base.Clone()
				wr := build(t, inst.mbs, 4, 4, 1.0, nil)
				rec := obs.New(nil)
				cfg := DefaultConfig()
				cfg.Workers = workers
				cfg.Obs = rec
				res, err := Partition(n, wr, cfg)
				if err != nil {
					t.Fatal(err)
				}
				pos := append(append([]float64(nil), n.X...), n.Y...)
				return res.CellRegion, pos, rec.Counter("realize.pairpass")
			}
			r1, p1, pairs1 := run(1)
			r4, p4, pairs4 := run(4)
			if pairs1 == 0 {
				t.Fatal("pair pass not exercised: realize.pairpass = 0")
			}
			if pairs1 != pairs4 {
				t.Fatalf("pair-step count differs: %v (1 worker) vs %v (4 workers)", pairs1, pairs4)
			}
			for i := range r1 {
				if r1[i] != r4[i] {
					t.Fatalf("cell %d: assignment differs between 1 and 4 workers: %v vs %v", i, r1[i], r4[i])
				}
			}
			for i := range p1 {
				if p1[i] != p4[i] {
					t.Fatalf("position %d differs: %g vs %g", i, p1[i], p4[i])
				}
			}
		})
	}
}

// The pair pass must keep the partitioning guarantees of the MCF
// solution: every cell assigned, regions respected up to one rounded
// cell, positions inside the assigned regions.
func TestPairPassRespectsCapacities(t *testing.T) {
	wr := build(t, nil, 4, 4, 1.0, nil)
	n := clusterNetlist(240, geom.Point{X: 1, Y: 1}, netlist.NoMovebound)
	rec := obs.New(nil)
	cfg := DefaultConfig()
	cfg.Obs = rec
	res, err := Partition(n, wr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counter("realize.pairpass") == 0 {
		t.Fatal("pair pass not exercised")
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
	for i := range n.Cells {
		ref := res.CellRegion[i]
		rs := wr.PerWin[ref.Window][ref.Index].Rects
		if !rs.Contains(n.Pos(netlist.CellID(i))) {
			t.Fatalf("cell %d at %v outside its region", i, n.Pos(netlist.CellID(i)))
		}
	}
}

// After the waves every unrealizedOut entry must be exactly zero: each
// (class, window, direction) has one external edge, whose flow is added
// once and subtracted once, so the final pass can never offer a transit
// sink.
func TestWavesRealizeAllTransit(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 7, Yhi: 7}}}}
	n := crowdedNetlist(17, 210)
	wr := build(t, mbs, 4, 4, 1.0, nil)
	m := BuildModel(n, wr, wr.Grid.AssignCells(n))
	if err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	r := newRealizer(m, DefaultConfig(), nil)
	classes := map[int]bool{}
	for i, v := range r.unrealizedOut {
		if v > 0 {
			classes[i/(wr.Grid.NumWindows()*numDirs)] = true
		}
	}
	if len(classes) < 2 {
		t.Fatalf("external flow in %d classes, want both the movebound and the open class", len(classes))
	}
	if err := r.realizeWaves(); err != nil {
		t.Fatal(err)
	}
	for i, v := range r.unrealizedOut {
		if v != 0 {
			t.Fatalf("unrealizedOut[%d] = %g after the waves, want exactly 0", i, v)
		}
	}
}

// buildStep only reads realizer state. On a realizer halfway through its
// waves (the first topological level realized, a unit of the second one
// with its first target marked realized), building the same pair step
// twice gives bit-equal problems and leaves cellsIn, parked, cellRegion,
// unrealizedOut and the positions as they were.
func TestBuildStepReadsOnly(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 7, Yhi: 7}}}}
	n := crowdedNetlist(17, 210)
	wr := build(t, mbs, 4, 4, 1.0, nil)
	m := BuildModel(n, wr, wr.Grid.AssignCells(n))
	if err := m.Solve(); err != nil {
		t.Fatal(err)
	}
	r := newRealizer(m, DefaultConfig(), nil)
	levels, err := r.topoLevels()
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) < 2 {
		t.Fatalf("%d topological levels, want at least 2", len(levels))
	}
	for _, wave := range r.waveSplit(levels[0]) {
		if err := r.runWave(wave); err != nil {
			t.Fatal(err)
		}
	}
	un := levels[1][0]
	sc := newWorkerScratch()
	target := r.pairTargets(un, sc)[0]
	r.markRealized(target.edges)

	type state struct {
		cellsIn       [][]int32
		parked        []bool
		cellRegion    []RegionRef
		unrealizedOut []uint64
		x, y          []uint64
	}
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	take := func() state {
		s := state{
			parked:        append([]bool(nil), r.parked...),
			cellRegion:    append([]RegionRef(nil), r.cellRegion...),
			unrealizedOut: bits(r.unrealizedOut),
			x:             bits(n.X),
			y:             bits(n.Y),
		}
		for _, cells := range r.cellsIn {
			s.cellsIn = append(s.cellsIn, append([]int32{}, cells...))
		}
		return s
	}
	before := take()
	var a, b step
	r.buildStep(&a, un.window, target.to)
	r.buildStep(&b, un.window, target.to)
	if !reflect.DeepEqual(take(), before) {
		t.Fatal("buildStep changed realizer state")
	}
	if len(a.cells) == 0 {
		t.Fatal("empty pair step")
	}
	transit := 0
	for _, s := range a.sinks {
		if s.region < 0 {
			transit++
		}
	}
	if transit == 0 {
		t.Fatal("pair step offers no transit sink; pick a unit with unrealized flow left")
	}
	if !reflect.DeepEqual(bits(a.prob.Supply), bits(b.prob.Supply)) {
		t.Fatal("supplies differ between two builds")
	}
	if !reflect.DeepEqual(bits(a.prob.Capacity), bits(b.prob.Capacity)) {
		t.Fatal("capacities differ between two builds")
	}
	if len(a.prob.Arcs) != len(b.prob.Arcs) {
		t.Fatalf("%d vs %d arc lists", len(a.prob.Arcs), len(b.prob.Arcs))
	}
	for i := range a.prob.Arcs {
		x, y := a.prob.Arcs[i], b.prob.Arcs[i]
		if len(x) != len(y) {
			t.Fatalf("source %d: %d vs %d arcs", i, len(x), len(y))
		}
		for k := range x {
			if x[k].Sink != y[k].Sink || math.Float64bits(x[k].Cost) != math.Float64bits(y[k].Cost) {
				t.Fatalf("source %d arc %d: %v vs %v", i, k, x[k], y[k])
			}
		}
	}
}
