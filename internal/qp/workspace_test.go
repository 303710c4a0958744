package qp

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
)

// messyNetlist builds a randomized netlist with multi-pin nets (both clique-
// and star-sized), pads, pin offsets, weights and a few fixed cells, so the
// equivalence tests exercise every emission path of the system assembly.
func messyNetlist(numCells int, seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := netlist.New(chip, 1)
	for i := 0; i < numCells; i++ {
		c := netlist.Cell{Width: 0.5, Height: 1, Movebound: netlist.NoMovebound}
		if i%17 == 0 {
			c.Fixed = true
		}
		id := n.AddCell(c)
		n.SetPos(id, geom.Point{X: 10 * rng.Float64(), Y: 10 * rng.Float64()})
	}
	for e := 0; e < 3*numCells; e++ {
		deg := 2 + rng.Intn(9) // up to 10 pins: crosses the star threshold
		pins := make([]netlist.Pin, 0, deg)
		for k := 0; k < deg; k++ {
			if rng.Intn(10) == 0 {
				pins = append(pins, netlist.Pin{Cell: -1, Offset: geom.Point{X: 10 * rng.Float64(), Y: 10 * rng.Float64()}})
				continue
			}
			pins = append(pins, netlist.Pin{
				Cell:   netlist.CellID(rng.Intn(numCells)),
				Offset: geom.Point{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5},
			})
		}
		n.AddNet(netlist.Net{Weight: 0.5 + rng.Float64(), Pins: pins})
	}
	return n
}

// sliceConfigs are the option sets the full-slice test runs under: full
// CG tolerance and the realization's best-effort caps.
var sliceConfigs = []struct {
	name string
	opt  Options
}{
	{"cliquestar", Options{}},
	{"besteffort", Options{Tol: 1e-3, MaxIter: 40, BestEffort: true}},
}

// TestSolveSliceMatchesSolve locks in that a slice over every movable cell
// in ascending order is the held system itself: its solve is bit for bit
// the held system's unanchored solve.
func TestSolveSliceMatchesSolve(t *testing.T) {
	for _, tc := range sliceConfigs {
		t.Run(tc.name, func(t *testing.T) {
			base := messyNetlist(400, 11)
			a := base.Clone()
			if err := heldSystem(a).Solve(nil, tc.opt); err != nil {
				t.Fatal(err)
			}
			b := base.Clone()
			opt := tc.opt
			opt.Workspace = NewWorkspace()
			if err := heldSystem(b).SolveSlice(b.MovableIDs(), opt); err != nil {
				t.Fatal(err)
			}
			for i := range a.X {
				if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) ||
					math.Float64bits(a.Y[i]) != math.Float64bits(b.Y[i]) {
					t.Fatalf("cell %d: Solve (%x,%x) != SolveSlice (%x,%x)",
						i, a.X[i], a.Y[i], b.X[i], b.Y[i])
				}
			}
		})
	}
}

// TestSolveSliceMatchesReference compares slices of the held system with
// a reference assembled from scratch: a clone whose movable cells outside
// the subset are fixed at the snapshot, solved by NewSystem. The netlist
// has star nets, pin offsets, pads and fixed cells; the subsets are a
// singleton, random blocks in random order, and one touching every star
// net. The live positions of the outside cells are moved away from the
// snapshot, so a slice that read them instead of ReadX/ReadY would fail.
func TestSolveSliceMatchesReference(t *testing.T) {
	base := messyNetlist(400, 23)
	rng := rand.New(rand.NewSource(5))
	movable := base.MovableIDs()
	subsets := [][]netlist.CellID{{movable[rng.Intn(len(movable))]}}
	for _, size := range []int{2, 17, 60, 200} {
		perm := rng.Perm(len(movable))[:size]
		s := make([]netlist.CellID, size)
		for i, k := range perm {
			s[i] = movable[k]
		}
		subsets = append(subsets, s)
	}
	// One movable pin of every star net.
	var stars []netlist.CellID
	inStars := make(map[netlist.CellID]bool)
	for _, net := range base.Nets {
		if len(net.Pins) <= cliqueThreshold {
			continue
		}
		for _, p := range net.Pins {
			if !p.IsPad() && !base.Cells[p.Cell].Fixed {
				if !inStars[p.Cell] {
					inStars[p.Cell] = true
					stars = append(stars, p.Cell)
				}
				break
			}
		}
	}
	subsets = append(subsets, stars)

	ws := NewWorkspace()
	for k, subset := range subsets {
		n := base.Clone()
		sys := heldSystem(n)
		snapX, snapY := slices.Clone(n.X), slices.Clone(n.Y)
		in := make(map[netlist.CellID]bool)
		for _, id := range subset {
			in[id] = true
		}
		ref := n.Clone()
		for _, id := range movable {
			if !in[id] {
				ref.Cells[id].Fixed = true
				n.SetPos(id, geom.Point{X: 10 - n.X[id], Y: 10 - n.Y[id]})
			}
		}
		opt := Options{Tol: 1e-12, ReadX: snapX, ReadY: snapY, Workspace: ws}
		if err := sys.SolveSlice(subset, opt); err != nil {
			t.Fatal(err)
		}
		if err := Solve(ref, nil, Options{Tol: 1e-12}); err != nil {
			t.Fatal(err)
		}
		for _, id := range subset {
			got, want := n.Pos(id), ref.Pos(id)
			if d := got.DistL1(want); d > 1e-9*(1+math.Abs(want.X)+math.Abs(want.Y)) {
				t.Fatalf("subset %d (%d cells), cell %d: slice %v, reference %v", k, len(subset), id, got, want)
			}
		}
	}
}

// TestWorkspaceReuseBitIdentical runs the same sequence of slice solves
// three ways — no workspace, a fresh workspace per call, one workspace
// reused across all calls — and demands bit-identical positions: buffer
// reuse must never leak state between solves.
func TestWorkspaceReuseBitIdentical(t *testing.T) {
	subsets := func(n *netlist.Netlist) [][]netlist.CellID {
		var out [][]netlist.CellID
		for start := 0; start < 3; start++ {
			var s []netlist.CellID
			for i := start; i < n.NumCells(); i += 3 {
				if !n.Cells[i].Fixed {
					s = append(s, netlist.CellID(i))
				}
			}
			out = append(out, s)
		}
		return out
	}
	run := func(ws func() *Workspace) *netlist.Netlist {
		n := messyNetlist(300, 29)
		sys := heldSystem(n)
		for round := 0; round < 3; round++ {
			for _, s := range subsets(n) {
				opt := Options{Tol: 1e-3, MaxIter: 30, BestEffort: true}
				if ws != nil {
					opt.Workspace = ws()
				}
				if err := sys.SolveSlice(s, opt); err != nil {
					t.Fatal(err)
				}
			}
		}
		return n
	}
	want := run(nil)
	fresh := run(func() *Workspace { return NewWorkspace() })
	shared := NewWorkspace()
	reused := run(func() *Workspace { return shared })
	for i := range want.X {
		for _, got := range []*netlist.Netlist{fresh, reused} {
			if want.X[i] != got.X[i] || want.Y[i] != got.Y[i] {
				t.Fatalf("cell %d: workspace variant diverged: (%x,%x) != (%x,%x)",
					i, want.X[i], want.Y[i], got.X[i], got.Y[i])
			}
		}
	}
	if shared.uses != 9 {
		t.Fatalf("shared workspace uses = %d, want 9", shared.uses)
	}
}

// TestSolveSliceAllocsOBlock is the regression guard for O(netlist) work
// per local QP: a small-block slice of a 10k-cell held system must
// allocate O(block), not O(netlist). With a warm workspace it is a few
// dozen (CG vectors and the solve's copies); one pin slice per net would
// be near 20k.
func TestSolveSliceAllocsOBlock(t *testing.T) {
	n := gridNetlist(100) // 10,000 cells, ~20,000 nets
	sys := heldSystem(n)
	subset := blockSubset(100, 12)
	opt := Options{Tol: 1e-3, MaxIter: 60, BestEffort: true, Workspace: NewWorkspace()}
	// Warm up: sizes the workspace.
	if err := sys.SolveSlice(subset, opt); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := sys.SolveSlice(subset, opt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 500 {
		t.Fatalf("SolveSlice allocates %v objects per block solve; O(netlist) work is back (want <= 500)", allocs)
	}
}

// TestWorkspaceAcrossNetlists checks that one workspace can serve netlists
// of different sizes back to back, assembling and slicing (the stamp
// arrays grow, results match fresh-workspace solves).
func TestWorkspaceAcrossNetlists(t *testing.T) {
	shared := NewWorkspace()
	for _, cells := range []int{50, 400, 120} {
		n := messyNetlist(cells, int64(cells))
		want := n.Clone()
		if err := Solve(want, nil, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := Solve(n, nil, Options{Workspace: shared}); err != nil {
			t.Fatal(err)
		}
		for i := range want.X {
			if want.X[i] != n.X[i] || want.Y[i] != n.Y[i] {
				t.Fatalf("cells=%d cell %d: shared-workspace solve diverged", cells, i)
			}
		}
		subset := n.MovableIDs()[cells/10:]
		if err := heldSystem(want).SolveSlice(subset, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := heldSystem(n).SolveSlice(subset, Options{Workspace: shared}); err != nil {
			t.Fatal(err)
		}
		for i := range want.X {
			if want.X[i] != n.X[i] || want.Y[i] != n.Y[i] {
				t.Fatalf("cells=%d cell %d: shared-workspace slice diverged", cells, i)
			}
		}
	}
}

// TestNetsVisitedCounter checks the obs wiring: an assembly reports the
// nets it emitted springs for (every net with a movable pin), and a slice
// of the held system walks no nets at all.
func TestNetsVisitedCounter(t *testing.T) {
	n := gridNetlist(40)
	rec := obs.New(nil)
	sys := NewSystem(n, Options{Obs: rec})
	if visited := rec.Counters()["qp.netsVisited"]; visited != float64(n.NumNets()) {
		t.Fatalf("qp.netsVisited = %v after assembly, want %d", visited, n.NumNets())
	}
	if err := sys.SolveSlice(blockSubset(40, 4), Options{Obs: rec}); err != nil {
		t.Fatal(err)
	}
	if visited := rec.Counters()["qp.netsVisited"]; visited != float64(n.NumNets()) {
		t.Fatalf("qp.netsVisited = %v after a slice, want it unchanged at %d", visited, n.NumNets())
	}
}
