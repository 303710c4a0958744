package qp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 10, Yhi: 10}

func TestSolveSingleCellBetweenPads(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{
		{Cell: a},
		{Cell: -1, Offset: geom.Point{X: 2, Y: 2}},
	}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{
		{Cell: a},
		{Cell: -1, Offset: geom.Point{X: 8, Y: 4}},
	}})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// Equal weights: optimum at the midpoint.
	if n.Pos(a).DistL1(geom.Point{X: 5, Y: 3}) > 1e-4 {
		t.Fatalf("pos = %v, want (5,3)", n.Pos(a))
	}
}

func TestSolveWeightedPull(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.AddNet(netlist.Net{Weight: 3, Pins: []netlist.Pin{
		{Cell: a}, {Cell: -1, Offset: geom.Point{X: 0, Y: 5}},
	}})
	n.AddNet(netlist.Net{Weight: 1, Pins: []netlist.Pin{
		{Cell: a}, {Cell: -1, Offset: geom.Point{X: 8, Y: 5}},
	}})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// Weighted average: (3*0 + 1*8)/4 = 2.
	if math.Abs(n.X[a]-2) > 1e-4 {
		t.Fatalf("x = %v, want 2", n.X[a])
	}
}

func TestSolveChainOfCells(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	pad := func(x float64) netlist.Pin { return netlist.Pin{Cell: -1, Offset: geom.Point{X: x, Y: 5}} }
	n.AddNet(netlist.Net{Pins: []netlist.Pin{pad(0), {Cell: a}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: b}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: b}, pad(9)}})
	if err := Solve(n, nil, Options{Tol: 1e-10}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.X[a]-3) > 1e-4 || math.Abs(n.X[b]-6) > 1e-4 {
		t.Fatalf("chain positions = %v, %v; want 3, 6", n.X[a], n.X[b])
	}
}

func TestSolveRespectsPinOffsets(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 1})
	// Pin at the right edge of the cell connects to a pad at x=6: the
	// cell center should sit at 5.
	n.AddNet(netlist.Net{Pins: []netlist.Pin{
		{Cell: a, Offset: geom.Point{X: 1, Y: 0}},
		{Cell: -1, Offset: geom.Point{X: 6, Y: 5}},
	}})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.X[a]-5) > 1e-4 {
		t.Fatalf("x = %v, want 5", n.X[a])
	}
}

func TestSolveFixedCellActsAsPad(t *testing.T) {
	n := netlist.New(chip, 1)
	f := n.AddCell(netlist.Cell{Width: 1, Height: 1, Fixed: true})
	n.SetPos(f, geom.Point{X: 8, Y: 8})
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: f}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 2, Y: 2}}}})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if n.Pos(a).DistL1(geom.Point{X: 5, Y: 5}) > 1e-4 {
		t.Fatalf("pos = %v, want (5,5)", n.Pos(a))
	}
	// The fixed cell must not move.
	if n.Pos(f) != (geom.Point{X: 8, Y: 8}) {
		t.Fatalf("fixed cell moved to %v", n.Pos(f))
	}
}

func TestSolveAnchors(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 0, Y: 0}}}})
	anchors := []Anchor{{Cell: a, Target: geom.Point{X: 10, Y: 10}, Weight: 1}}
	if err := Solve(n, anchors, Options{}); err != nil {
		t.Fatal(err)
	}
	// Equal pulls: midpoint.
	if n.Pos(a).DistL1(geom.Point{X: 5, Y: 5}) > 1e-4 {
		t.Fatalf("pos = %v", n.Pos(a))
	}
	// Stronger anchor wins.
	anchors[0].Weight = 1e6
	if err := Solve(n, anchors, Options{}); err != nil {
		t.Fatal(err)
	}
	if n.Pos(a).DistL1(geom.Point{X: 10, Y: 10}) > 1e-2 {
		t.Fatalf("pos = %v, want near (10,10)", n.Pos(a))
	}
}

func TestSolveSubsetFixesOthers(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.SetPos(b, geom.Point{X: 9, Y: 9})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: b}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 1, Y: 1}}}})
	if err := SolveSubset(n, []netlist.CellID{a}, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if n.Pos(b) != (geom.Point{X: 9, Y: 9}) {
		t.Fatalf("non-subset cell moved: %v", n.Pos(b))
	}
	if n.Pos(a).DistL1(geom.Point{X: 5, Y: 5}) > 1e-4 {
		t.Fatalf("pos a = %v, want (5,5)", n.Pos(a))
	}
}

func TestSolveSubsetRejectsFixed(t *testing.T) {
	n := netlist.New(chip, 1)
	f := n.AddCell(netlist.Cell{Width: 1, Height: 1, Fixed: true})
	if err := SolveSubset(n, []netlist.CellID{f}, nil, Options{}); err == nil {
		t.Fatal("fixed cell in subset accepted")
	}
}

func TestSolveStarModelLargeNet(t *testing.T) {
	n := netlist.New(chip, 1)
	var cells []netlist.CellID
	var pinList []netlist.Pin
	for i := 0; i < 12; i++ {
		c := n.AddCell(netlist.Cell{Width: 1, Height: 1})
		cells = append(cells, c)
		pinList = append(pinList, netlist.Pin{Cell: c})
	}
	pinList = append(pinList,
		netlist.Pin{Cell: -1, Offset: geom.Point{X: 2, Y: 2}},
		netlist.Pin{Cell: -1, Offset: geom.Point{X: 8, Y: 8}})
	n.AddNet(netlist.Net{Pins: pinList})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// All cells collapse to the pad midpoint through the star node.
	for _, c := range cells {
		if n.Pos(c).DistL1(geom.Point{X: 5, Y: 5}) > 1e-3 {
			t.Fatalf("cell %d at %v, want (5,5)", c, n.Pos(c))
		}
	}
}

func TestSolveClampsToArea(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	// Anchor far outside the chip.
	anchors := []Anchor{{Cell: a, Target: geom.Point{X: 100, Y: -50}, Weight: 1}}
	if err := Solve(n, anchors, Options{}); err != nil {
		t.Fatal(err)
	}
	p := n.Pos(a)
	if !chip.Contains(p) {
		t.Fatalf("pos %v outside chip", p)
	}
}

func TestSolveDisconnectedCellGoesToCenter(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	n.SetPos(a, geom.Point{X: 1, Y: 1})
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if n.Pos(a).DistL1(chip.Center()) > 1e-3 {
		t.Fatalf("disconnected cell at %v", n.Pos(a))
	}
}

// Property: the solver reaches (up to tolerance) a stationary point —
// perturbing any single cell does not decrease the quadratic objective.
func TestSolveIsLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		n := netlist.New(chip, 1)
		nc := 4 + rng.Intn(10)
		var ids []netlist.CellID
		for i := 0; i < nc; i++ {
			ids = append(ids, n.AddCell(netlist.Cell{Width: 1, Height: 1}))
		}
		// Random 2- and 3-pin nets plus two boundary pads.
		n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: ids[0]}, {Cell: -1, Offset: geom.Point{X: 0, Y: 0}}}})
		n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: ids[nc-1]}, {Cell: -1, Offset: geom.Point{X: 10, Y: 10}}}})
		for e := 0; e < 2*nc; e++ {
			i, j := rng.Intn(nc), rng.Intn(nc)
			if i == j {
				continue
			}
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: ids[i]}, {Cell: ids[j]}}})
		}
		if err := Solve(n, nil, Options{Tol: 1e-10}); err != nil {
			t.Fatal(err)
		}
		base := Netlength(n)
		for _, id := range ids {
			orig := n.Pos(id)
			for _, d := range []geom.Point{{X: 0.01}, {X: -0.01}, {Y: 0.01}, {Y: -0.01}} {
				n.SetPos(id, orig.Add(d))
				if got := Netlength(n); got < base-1e-6 {
					t.Fatalf("trial %d: perturbing cell %d improved %g -> %g", trial, id, base, got)
				}
			}
			n.SetPos(id, orig)
		}
	}
}

func TestNetlengthDecreasesAfterSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := netlist.New(chip, 1)
	var ids []netlist.CellID
	for i := 0; i < 20; i++ {
		id := n.AddCell(netlist.Cell{Width: 1, Height: 1})
		n.SetPos(id, geom.Point{X: rng.Float64() * 10, Y: rng.Float64() * 10})
		ids = append(ids, id)
	}
	for e := 0; e < 40; e++ {
		i, j := rng.Intn(20), rng.Intn(20)
		if i != j {
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: ids[i]}, {Cell: ids[j]}}})
		}
	}
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: ids[0]}, {Cell: -1, Offset: geom.Point{X: 0, Y: 5}}}})
	before := Netlength(n)
	if err := Solve(n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	after := Netlength(n)
	if after > before {
		t.Fatalf("netlength increased: %g -> %g", before, after)
	}
}

func TestB2BTwoPinMatchesClique(t *testing.T) {
	build := func(model NetModel) *netlist.Netlist {
		n := netlist.New(chip, 1)
		a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
		n.AddNet(netlist.Net{Pins: []netlist.Pin{
			{Cell: a}, {Cell: -1, Offset: geom.Point{X: 2, Y: 8}},
		}})
		n.AddNet(netlist.Net{Pins: []netlist.Pin{
			{Cell: a}, {Cell: -1, Offset: geom.Point{X: 8, Y: 2}},
		}})
		if err := Solve(n, nil, Options{NetModel: model}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	c := build(ModelCliqueStar)
	b := build(ModelB2B)
	if c.Pos(0).DistL1(b.Pos(0)) > 1e-6 {
		t.Fatalf("2-pin nets must agree: %v vs %v", c.Pos(0), b.Pos(0))
	}
}

func TestB2BApproximatesHPWLBetter(t *testing.T) {
	// A 4-pin net with three fixed pins and one movable cell: the HPWL
	// optimum puts the cell anywhere inside the bounding box of the other
	// pins; the clique optimum pulls it to the centroid. B2B (iterated)
	// should land at least as good an HPWL as the clique model.
	rng := rand.New(rand.NewSource(4))
	worse := 0
	for trial := 0; trial < 20; trial++ {
		build := func(model NetModel) float64 {
			n := netlist.New(chip, 1)
			a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
			pins := []netlist.Pin{{Cell: a}}
			for k := 0; k < 3; k++ {
				pins = append(pins, netlist.Pin{Cell: -1, Offset: geom.Point{
					X: rng.Float64() * 10, Y: rng.Float64() * 10,
				}})
			}
			n.AddNet(netlist.Net{Pins: pins})
			// An extra 2-pin net tugging the cell off-center.
			n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 0, Y: 0}}}})
			for iter := 0; iter < 3; iter++ {
				if err := Solve(n, nil, Options{NetModel: model}); err != nil {
					t.Fatal(err)
				}
			}
			return n.HPWL()
		}
		rngState := *rng
		clique := build(ModelCliqueStar)
		*rng = rngState
		b2b := build(ModelB2B)
		if b2b > clique+1e-9 {
			worse++
		}
	}
	if worse > 6 {
		t.Fatalf("B2B worse than clique in %d/20 trials", worse)
	}
}

func TestB2BCoincidentPinsStable(t *testing.T) {
	n := netlist.New(chip, 1)
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	c := n.AddCell(netlist.Cell{Width: 1, Height: 1})
	// All cells start at the chip center: every pin coincides.
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: b}, {Cell: c}}})
	n.AddNet(netlist.Net{Pins: []netlist.Pin{{Cell: a}, {Cell: -1, Offset: geom.Point{X: 1, Y: 1}}}})
	if err := Solve(n, nil, Options{NetModel: ModelB2B}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p := n.Pos(netlist.CellID(i))
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			t.Fatalf("cell %d at NaN", i)
		}
	}
}

// TestDegradeKeepsAnchorSolution forces organic CG non-convergence (a long
// chain needs ~one iteration per cell; MaxIter 1 leaves even the 4x retry
// short) and checks the fallback contract: with a degrade log the solve
// returns nil, leaves the warm-start positions untouched, and records the
// qp.cg -> anchor-solution event; without one it stays a hard error.
func TestDegradeKeepsAnchorSolution(t *testing.T) {
	build := func() (*netlist.Netlist, []netlist.CellID) {
		n := netlist.New(chip, 1)
		var ids []netlist.CellID
		prev := netlist.Pin{Cell: -1, Offset: geom.Point{X: 0, Y: 5}}
		for i := 0; i < 30; i++ {
			id := n.AddCell(netlist.Cell{Width: 0.1, Height: 0.1})
			n.SetPos(id, geom.Point{X: 1, Y: 1})
			n.AddNet(netlist.Net{Pins: []netlist.Pin{prev, {Cell: id}}})
			prev = netlist.Pin{Cell: id}
			ids = append(ids, id)
		}
		n.AddNet(netlist.Net{Pins: []netlist.Pin{prev, {Cell: -1, Offset: geom.Point{X: 9, Y: 5}}}})
		return n, ids
	}

	n, ids := build()
	if err := Solve(n, nil, Options{Tol: 1e-12, MaxIter: 1}); err == nil {
		t.Fatal("non-convergence without a degrade log must be a hard error")
	}

	n, ids = build()
	dl := degrade.New(nil)
	if err := Solve(n, nil, Options{Tol: 1e-12, MaxIter: 1, Degrade: dl}); err != nil {
		t.Fatalf("degraded solve returned %v, want nil", err)
	}
	for _, id := range ids {
		if n.Pos(id) != (geom.Point{X: 1, Y: 1}) {
			t.Fatalf("cell %d moved to %v; degraded solve must keep the warm start", id, n.Pos(id))
		}
	}
	evs := dl.Events()
	if len(evs) == 0 || evs[0].Stage != "qp.cg" || evs[0].Fallback != "anchor-solution" {
		t.Fatalf("degradation events = %v, want qp.cg -> anchor-solution", evs)
	}
}

// TestCGFaultOrderDeterministic arms sparse.cg.noconverge and solves one
// subset 20 times. The axes are solved concurrently, but the fault hits
// must land in the sequential order x, x-retry, y, y-retry: with Limit 2
// both x attempts fail in every run, giving the same degradation record
// (its detail names the hit) and the warm-start positions; with Limit 1
// only the first x attempt fails, its retry converges, and the positions
// equal an unarmed solve's bit for bit.
func TestCGFaultOrderDeterministic(t *testing.T) {
	defer faultsim.Reset()
	base := messyNetlist(300, 9)
	var subset []netlist.CellID
	for _, id := range base.MovableIDs() {
		if id%3 != 0 {
			subset = append(subset, id)
		}
	}
	solve := func(limit uint64) (*netlist.Netlist, []degrade.Event) {
		t.Helper()
		faultsim.Reset()
		if limit > 0 {
			if err := faultsim.Arm("sparse.cg.noconverge", faultsim.Schedule{Limit: limit}); err != nil {
				t.Fatal(err)
			}
		}
		n := base.Clone()
		dl := degrade.New(nil)
		if err := SolveSubset(n, subset, nil, Options{Degrade: dl}); err != nil {
			t.Fatal(err)
		}
		return n, dl.Events()
	}
	samePositions := func(run int, got, want *netlist.Netlist) {
		t.Helper()
		for i := range want.X {
			if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) ||
				math.Float64bits(got.Y[i]) != math.Float64bits(want.Y[i]) {
				t.Fatalf("run %d: cell %d at (%v, %v), want (%v, %v)", run, i, got.X[i], got.Y[i], want.X[i], want.Y[i])
			}
		}
	}
	clean, evs := solve(0)
	if len(evs) != 0 {
		t.Fatalf("unarmed solve degraded: %v", evs)
	}
	for run := 0; run < 20; run++ {
		n, evs := solve(2)
		if len(evs) != 1 || evs[0].Stage != "qp.cg" || evs[0].Fallback != "anchor-solution" ||
			!strings.Contains(evs[0].Detail, "hit 1") {
			t.Fatalf("run %d, limit 2: degradations %v, want one qp.cg -> anchor-solution at hit 1", run, evs)
		}
		samePositions(run, n, base)

		n, evs = solve(1)
		if len(evs) != 0 {
			t.Fatalf("run %d, limit 1: degradations %v, want none (the x retry converges)", run, evs)
		}
		samePositions(run, n, clean)
	}
}

// TestHeldSystemMatchesFreshSolves solves one held system of all movable
// cells four times — unanchored, then with three anchor sets of growing
// weight, moving every movable cell between solves the way partitioning
// does — and checks each result bit for bit against a fresh
// SolveSubset(n, MovableIDs, anchors) on a twin netlist. The netlist has
// star nets, pin offsets, pads and fixed cells.
func TestHeldSystemMatchesFreshSolves(t *testing.T) {
	held := messyNetlist(400, 17)
	fresh := held.Clone()
	sys, err := NewSystem(held, Options{Workspace: NewWorkspace()})
	if err != nil {
		t.Fatal(err)
	}
	movable := held.MovableIDs()
	var anchors []Anchor
	for round := 0; round < 4; round++ {
		if round > 0 {
			anchors = anchors[:0]
			for i, id := range movable {
				p := held.Pos(id)
				target := geom.Point{X: math.Mod(p.X+float64(i%7), 10), Y: math.Mod(p.Y+float64(i%5), 10)}
				anchors = append(anchors, Anchor{Cell: id, Target: target, Weight: 0.05 * float64(int(1)<<round)})
				held.SetPos(id, target)
				fresh.SetPos(id, target)
			}
		}
		if err := sys.Solve(anchors, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := SolveSubset(fresh, fresh.MovableIDs(), anchors, Options{}); err != nil {
			t.Fatal(err)
		}
		for i := range held.X {
			if math.Float64bits(held.X[i]) != math.Float64bits(fresh.X[i]) ||
				math.Float64bits(held.Y[i]) != math.Float64bits(fresh.Y[i]) {
				t.Fatalf("solve %d, cell %d: held system (%v, %v), fresh (%v, %v)",
					round, i, held.X[i], held.Y[i], fresh.X[i], fresh.Y[i])
			}
		}
	}
}
