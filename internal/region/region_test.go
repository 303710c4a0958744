package region

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

var chip = geom.Rect{Xlo: 0, Ylo: 0, Xhi: 12, Yhi: 8}

// figure1 builds the example of paper Figure 1: an exclusive movebound N,
// and two inclusive movebounds M, L with A(L) contained in A(M). After
// normalization (M loses the part under N) the decomposition has exactly
// three maximal regions: N, L, and M\L.
func figure1(t *testing.T) ([]Movebound, *Decomposition) {
	t.Helper()
	mbs := []Movebound{
		{Name: "N", Kind: Exclusive, Area: geom.RectSet{{Xlo: 8, Ylo: 4, Xhi: 12, Yhi: 8}}},
		{Name: "M", Kind: Inclusive, Area: geom.RectSet{chip}},
		{Name: "L", Kind: Inclusive, Area: geom.RectSet{{Xlo: 2, Ylo: 2, Xhi: 6, Yhi: 6}}},
	}
	norm, err := Normalize(chip, mbs)
	if err != nil {
		t.Fatal(err)
	}
	return norm, Decompose(chip, norm)
}

func TestFigure1Decomposition(t *testing.T) {
	norm, d := figure1(t)
	if len(d.Regions) != 3 {
		t.Fatalf("got %d regions, want 3 (Figure 1)", len(d.Regions))
	}
	// Regions partition the chip.
	total := 0.0
	for _, r := range d.Regions {
		total += r.Area
	}
	if math.Abs(total-chip.Area()) > 1e-9 {
		t.Fatalf("regions cover %v, chip is %v", total, chip.Area())
	}
	// Identify regions by probing points.
	nIdx := d.RegionOf(geom.Point{X: 10, Y: 6})
	lIdx := d.RegionOf(geom.Point{X: 4, Y: 4})
	mIdx := d.RegionOf(geom.Point{X: 1, Y: 7})
	if nIdx == lIdx || lIdx == mIdx || nIdx == mIdx {
		t.Fatalf("probe points map to regions %d,%d,%d, want distinct", nIdx, lIdx, mIdx)
	}
	if !d.Regions[nIdx].Blocked || d.Regions[nIdx].Exclusive != 0 {
		t.Fatalf("N region not marked exclusive: %+v", d.Regions[nIdx])
	}
	if !d.Regions[lIdx].Covers[1] || !d.Regions[lIdx].Covers[2] {
		t.Fatalf("L region coverage wrong: %v", d.Regions[lIdx].Covers)
	}
	if !d.Regions[mIdx].Covers[1] || d.Regions[mIdx].Covers[2] {
		t.Fatalf("M-only region coverage wrong: %v", d.Regions[mIdx].Covers)
	}
	// Normalization removed N's area from M.
	if norm[1].Area.OverlapsRect(geom.Rect{Xlo: 8, Ylo: 4, Xhi: 12, Yhi: 8}) {
		t.Fatal("M still overlaps exclusive N after Normalize")
	}
	// Region areas: N = 16, L = 16, M\L = 96-32 = 64.
	if math.Abs(d.Regions[nIdx].Area-16) > 1e-9 {
		t.Fatalf("N area = %v", d.Regions[nIdx].Area)
	}
	if math.Abs(d.Regions[lIdx].Area-16) > 1e-9 {
		t.Fatalf("L area = %v", d.Regions[lIdx].Area)
	}
	if math.Abs(d.Regions[mIdx].Area-64) > 1e-9 {
		t.Fatalf("M-only area = %v", d.Regions[mIdx].Area)
	}
}

func TestNormalizeExclusiveOverlapError(t *testing.T) {
	mbs := []Movebound{
		{Name: "A", Kind: Exclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 4, Yhi: 4}}},
		{Name: "B", Kind: Exclusive, Area: geom.RectSet{{Xlo: 2, Ylo: 2, Xhi: 6, Yhi: 6}}},
	}
	if _, err := Normalize(chip, mbs); err == nil {
		t.Fatal("overlapping exclusive movebounds accepted")
	}
}

func TestNormalizeEmptyAreaError(t *testing.T) {
	mbs := []Movebound{
		{Name: "out", Kind: Inclusive, Area: geom.RectSet{{Xlo: 100, Ylo: 100, Xhi: 110, Yhi: 110}}},
	}
	if _, err := Normalize(chip, mbs); err == nil {
		t.Fatal("off-chip movebound accepted")
	}
}

func TestNormalizeShadowedError(t *testing.T) {
	mbs := []Movebound{
		{Name: "X", Kind: Exclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 4, Yhi: 4}}},
		{Name: "I", Kind: Inclusive, Area: geom.RectSet{{Xlo: 1, Ylo: 1, Xhi: 3, Yhi: 3}}},
	}
	if _, err := Normalize(chip, mbs); err == nil {
		t.Fatal("fully shadowed inclusive movebound accepted")
	}
}

func TestAdmissible(t *testing.T) {
	_, d := figure1(t)
	nIdx := d.RegionOf(geom.Point{X: 10, Y: 6})
	lIdx := d.RegionOf(geom.Point{X: 4, Y: 4})
	mIdx := d.RegionOf(geom.Point{X: 1, Y: 7})
	// Unbounded cells: everywhere except the exclusive region.
	if d.Admissible(netlist.NoMovebound, nIdx) {
		t.Fatal("unbounded cell admitted to exclusive region")
	}
	if !d.Admissible(netlist.NoMovebound, mIdx) || !d.Admissible(netlist.NoMovebound, lIdx) {
		t.Fatal("unbounded cell rejected from open regions")
	}
	// N's own cells: only inside N.
	if !d.Admissible(0, nIdx) || d.Admissible(0, mIdx) || d.Admissible(0, lIdx) {
		t.Fatal("exclusive movebound admissibility wrong")
	}
	// M's cells: M-only and L regions (L is inside M), not N.
	if !d.Admissible(1, mIdx) || !d.Admissible(1, lIdx) || d.Admissible(1, nIdx) {
		t.Fatal("M admissibility wrong")
	}
	// L's cells: only the L region.
	if !d.Admissible(2, lIdx) || d.Admissible(2, mIdx) || d.Admissible(2, nIdx) {
		t.Fatal("L admissibility wrong")
	}
}

func TestRegionOfOutside(t *testing.T) {
	_, d := figure1(t)
	if got := d.RegionOf(geom.Point{X: -5, Y: -5}); got != -1 {
		t.Fatalf("RegionOf outside = %d, want -1", got)
	}
}

func TestCapacitiesWithBlockage(t *testing.T) {
	_, d := figure1(t)
	lIdx := d.RegionOf(geom.Point{X: 4, Y: 4})
	// A blockage covering half of L.
	blk := geom.RectSet{{Xlo: 2, Ylo: 2, Xhi: 4, Yhi: 6}}
	caps := d.Capacities(blk, 1.0)
	if math.Abs(caps[lIdx]-8) > 1e-9 {
		t.Fatalf("L capacity = %v, want 8", caps[lIdx])
	}
	// Density scaling.
	caps = d.Capacities(nil, 0.5)
	if math.Abs(caps[lIdx]-8) > 1e-9 {
		t.Fatalf("L capacity at density 0.5 = %v, want 8", caps[lIdx])
	}
}

// buildTestNetlist makes cells with given areas per class (class index ==
// movebound, last = unbounded).
func buildTestNetlist(t *testing.T, areas []float64, numMB int) *netlist.Netlist {
	t.Helper()
	n := netlist.New(chip, 1)
	for class, a := range areas {
		if a <= 0 {
			continue
		}
		mb := class
		if class == numMB {
			mb = netlist.NoMovebound
		}
		n.AddCell(netlist.Cell{Width: a, Height: 1, Movebound: mb})
	}
	return n
}

func TestCheckFeasibilityBasic(t *testing.T) {
	_, d := figure1(t)
	caps := d.Capacities(nil, 1.0)
	// Small amounts everywhere: feasible.
	n := buildTestNetlist(t, []float64{4, 10, 4, 10}, 3)
	rep := CheckFeasibility(n, d, caps)
	if !rep.Feasible {
		t.Fatalf("feasible instance rejected: %+v", rep)
	}
	// L's region holds 16; demand 20 on L alone: infeasible.
	n = buildTestNetlist(t, []float64{0, 0, 20, 0}, 3)
	rep = CheckFeasibility(n, d, caps)
	if rep.Feasible {
		t.Fatalf("infeasible instance accepted: %+v", rep)
	}
	// M and unbounded compete for the non-N space (96-16 = 80): 50+50 is
	// too much, even though each alone would fit.
	n = buildTestNetlist(t, []float64{0, 50, 0, 50}, 3)
	rep = CheckFeasibility(n, d, caps)
	if rep.Feasible {
		t.Fatalf("subset-infeasible instance accepted: %+v", rep)
	}
	// Unbounded alone can NOT use N's 16: 81 unbounded is infeasible.
	n = buildTestNetlist(t, []float64{0, 0, 0, 81}, 3)
	if rep := CheckFeasibility(n, d, caps); rep.Feasible {
		t.Fatalf("exclusive area used by unbounded cells: %+v", rep)
	}
	// ... but 80 fits exactly.
	n = buildTestNetlist(t, []float64{0, 0, 0, 80}, 3)
	if rep := CheckFeasibility(n, d, caps); !rep.Feasible {
		t.Fatalf("tight instance rejected: %+v", rep)
	}
}

func TestPerCellMatchesClustered(t *testing.T) {
	_, d := figure1(t)
	caps := d.Capacities(nil, 1.0)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := netlist.New(chip, 1)
		for i := 0; i < 1+rng.Intn(10); i++ {
			mb := rng.Intn(4) - 1 // -1..2
			n.AddCell(netlist.Cell{Width: 1 + rng.Float64()*20, Height: 1, Movebound: mb})
		}
		a := CheckFeasibility(n, d, caps)
		b := CheckFeasibilityPerCell(n, d, caps)
		if a.Feasible != b.Feasible {
			t.Fatalf("trial %d: clustered %v != per-cell %v", trial, a.Feasible, b.Feasible)
		}
	}
}

// Property (Theorem 1): the max-flow check agrees with the Hall condition
// (1): for every subset of classes, total size <= capacity of the union of
// admissible regions.
func TestFeasibilityMatchesHallCondition(t *testing.T) {
	_, d := figure1(t)
	caps := d.Capacities(nil, 1.0)
	numClasses := len(d.Movebounds) + 1
	admissible := func(class, ri int) bool {
		mb := class
		if class == numClasses-1 {
			mb = netlist.NoMovebound
		}
		return d.Admissible(mb, ri)
	}
	f := func(a0, a1, a2, a3 uint8) bool {
		areas := []float64{float64(a0 % 40), float64(a1 % 80), float64(a2 % 40), float64(a3 % 120)}
		n := buildTestNetlist(t, areas, 3)
		got := CheckFeasibility(n, d, caps).Feasible
		// Hall condition over all nonempty class subsets.
		hall := true
		for mask := 1; mask < 1<<numClasses; mask++ {
			demand := 0.0
			for c := 0; c < numClasses; c++ {
				if mask&(1<<c) != 0 {
					demand += areas[c]
				}
			}
			cap := 0.0
			for ri := range d.Regions {
				for c := 0; c < numClasses; c++ {
					if mask&(1<<c) != 0 && admissible(c, ri) {
						cap += caps[ri]
						break
					}
				}
			}
			if demand > cap+1e-6 {
				hall = false
				break
			}
		}
		return got == hall
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLegal(t *testing.T) {
	norm, _ := figure1(t)
	n := netlist.New(chip, 1)
	// Cell of L placed inside L: legal.
	a := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: 2})
	n.SetPos(a, geom.Point{X: 4, Y: 4})
	// Unbounded cell inside exclusive N: violation.
	b := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: netlist.NoMovebound})
	n.SetPos(b, geom.Point{X: 10, Y: 6})
	// Cell of L outside L: violation.
	c := n.AddCell(netlist.Cell{Width: 1, Height: 1, Movebound: 2})
	n.SetPos(c, geom.Point{X: 1, Y: 1})
	// Fixed cells are exempt.
	f := n.AddCell(netlist.Cell{Width: 1, Height: 1, Fixed: true, Movebound: netlist.NoMovebound})
	n.SetPos(f, geom.Point{X: 10, Y: 6})
	if got := CheckLegal(n, norm); got != 2 {
		t.Fatalf("CheckLegal = %d, want 2", got)
	}
}

func TestCheckLegalCellStraddlingBoundary(t *testing.T) {
	norm, _ := figure1(t)
	n := netlist.New(chip, 1)
	// Cell of L centered on L's boundary: half outside -> violation.
	a := n.AddCell(netlist.Cell{Width: 2, Height: 2, Movebound: 2})
	n.SetPos(a, geom.Point{X: 6, Y: 4})
	if got := CheckLegal(n, norm); got != 1 {
		t.Fatalf("CheckLegal = %d, want 1", got)
	}
	// Nudged fully inside: legal.
	n.SetPos(a, geom.Point{X: 5, Y: 4})
	if got := CheckLegal(n, norm); got != 0 {
		t.Fatalf("CheckLegal = %d, want 0", got)
	}
}

func TestDecomposeNoMovebounds(t *testing.T) {
	d := Decompose(chip, nil)
	if len(d.Regions) != 1 {
		t.Fatalf("got %d regions, want 1", len(d.Regions))
	}
	if math.Abs(d.Regions[0].Area-chip.Area()) > 1e-9 {
		t.Fatalf("region area = %v", d.Regions[0].Area)
	}
	if !d.Admissible(netlist.NoMovebound, 0) {
		t.Fatal("unbounded cell rejected from the whole chip")
	}
}

func TestDecomposeOverlappingInclusives(t *testing.T) {
	// Two overlapping inclusive movebounds -> 4 regions: A-only, B-only,
	// A∩B, neither.
	mbs := []Movebound{
		{Name: "A", Kind: Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 6, Yhi: 8}}},
		{Name: "B", Kind: Inclusive, Area: geom.RectSet{{Xlo: 4, Ylo: 0, Xhi: 10, Yhi: 8}}},
	}
	norm, err := Normalize(chip, mbs)
	if err != nil {
		t.Fatal(err)
	}
	d := Decompose(chip, norm)
	if len(d.Regions) != 4 {
		t.Fatalf("got %d regions, want 4", len(d.Regions))
	}
	both := d.RegionOf(geom.Point{X: 5, Y: 4})
	if !d.Regions[both].Covers[0] || !d.Regions[both].Covers[1] {
		t.Fatalf("overlap region coverage: %v", d.Regions[both].Covers)
	}
	// Cells of A may use the overlap; cells of B too.
	if !d.Admissible(0, both) || !d.Admissible(1, both) {
		t.Fatal("overlap region must admit both movebounds")
	}
}
