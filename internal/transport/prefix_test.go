package transport

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// pairShapedProblem builds a realization-shaped instance: the n cells of a
// window pair piled on `spots` integer positions, k sinks (region centres
// and transit points) and L1 costs, so the cells of one position tie
// exactly on every reassignment. With integral set, supplies and sink
// positions are integers too, so distinct positions often tie as well;
// otherwise both are fractional. Every fourth cell belongs to a class that
// only the first half of the sinks admit. A sink's capacity is 80% of the
// supply whose cheapest sink it is (the engine's starting pseudoflow,
// lowest index on ties) plus `slack` times an even share of the total
// supply.
func pairShapedProblem(rng *rand.Rand, n, k, spots int, integral bool, slack float64) *Problem {
	const span = 40
	sx, sy := make([]float64, k), make([]float64, k)
	for j := range sx {
		if integral {
			sx[j], sy[j] = float64(rng.Intn(span+1)), float64(rng.Intn(span/2+1))
		} else {
			sx[j], sy[j] = rng.Float64()*span, rng.Float64()*span/2
		}
	}
	px, py := make([]float64, spots), make([]float64, spots)
	for s := range px {
		px[s], py[s] = float64(rng.Intn(span+1)), float64(rng.Intn(span/2+1))
	}
	p := &Problem{Supply: make([]float64, n), Capacity: make([]float64, k), Arcs: make([][]Arc, n)}
	demand := make([]float64, k)
	total := 0.0
	for i := range p.Supply {
		if integral {
			p.Supply[i] = float64(1 + rng.Intn(4))
		} else {
			p.Supply[i] = 0.5 + rng.Float64()*3
		}
		total += p.Supply[i]
		s := rng.Intn(spots)
		best, bestC := -1, math.Inf(1)
		for j := 0; j < k; j++ {
			if i%4 == 3 && j >= (k+1)/2 {
				continue
			}
			c := math.Abs(px[s]-sx[j]) + math.Abs(py[s]-sy[j])
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: c})
			if c < bestC {
				best, bestC = j, c
			}
		}
		demand[best] += p.Supply[i]
	}
	for j := range p.Capacity {
		p.Capacity[j] = 0.8*demand[j] + slack*total/float64(k)
	}
	return p
}

// TestCondensedTieHeavyMatchesReference checks the condensed engine alone
// on tie-heavy realization-shaped instances (n up to 2500, k 2 to 12),
// feasible and elastic: cost and overflow must match the reference
// engine, and the plan must ship everything within capacity plus
// overflow, take no overflow when the reference takes none and split at
// most k-1 sources. Across the set, candidate prefixes must run empty and
// refill, tied groups must be read from the prefix and some must still
// need the scan, so every path of the candidate upkeep is exercised.
func TestCondensedTieHeavyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := 24
	if testing.Short() {
		cases = 8
	}
	var refills, tieScans, augs, feasible, elastic int
	ws := NewWorkspace()
	for c := 0; c < cases; c++ {
		k := 2 + rng.Intn(11)
		n := 100 + rng.Intn(2401)
		slack := 0.25
		if c%2 == 1 {
			slack = 0.05
		}
		p := pairShapedProblem(rng, n, k, 50+rng.Intn(300), rng.Intn(2) == 0, slack)
		ref, err := SolveReference(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): reference: %v", c, k, n, err)
		}
		p.Workspace = ws
		got, st, err := runCondensed(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): condensed: %v", c, k, n, err)
		}
		refills += st.refills
		tieScans += st.tieScans
		augs += st.augs
		if err := checkSolution(p, got); err != nil {
			t.Fatalf("case %d (k=%d n=%d): %v", c, k, n, err)
		}
		gotO, refO := got.TotalOverflow(), ref.TotalOverflow()
		if d := math.Abs(gotO - refO); d > 1e-6*(1+refO) {
			t.Fatalf("case %d (k=%d n=%d): overflow %.9g, reference %.9g", c, k, n, gotO, refO)
		}
		if d := math.Abs(got.Cost - ref.Cost); d > 1e-6*(1+math.Abs(ref.Cost)) {
			t.Fatalf("case %d (k=%d n=%d): cost %.9g, reference %.9g", c, k, n, got.Cost, ref.Cost)
		}
		if refO == 0 {
			feasible++
			if gotO != 0 {
				t.Fatalf("case %d (k=%d n=%d): feasible instance took overflow %g", c, k, n, gotO)
			}
		} else {
			elastic++
		}
		if s := got.NumSplit(); s > k-1 {
			t.Fatalf("case %d (k=%d n=%d): %d split sources, want at most k-1 = %d", c, k, n, s, k-1)
		}
	}
	if feasible == 0 || elastic == 0 {
		t.Fatalf("%d feasible and %d elastic instances; want both", feasible, elastic)
	}
	if refills == 0 || tieScans == 0 || tieScans >= augs {
		t.Fatalf("refills %d, tie scans %d over %d augmentations: the prefix paths are not all exercised", refills, tieScans, augs)
	}
}

// goldenPlanDigest is the SHA-256 of the plans of goldenProblems, as the
// engine solved them before the candidate prefix replaced the
// best/second pair cache and the slot index replaced the linear presence
// searches; the rewrite must reproduce every plan bit for bit.
const goldenPlanDigest = "afa03a650fac8c0407b29caf1facd3116e7c6045788e702a9e21b23853b49240"

// goldenProblems is a fixed, seeded set of realization-shaped instances,
// feasible and elastic, with integral and fractional supplies.
func goldenProblems() []*Problem {
	rng := rand.New(rand.NewSource(2011))
	var ps []*Problem
	for c := 0; c < 16; c++ {
		k := 2 + c%11
		n := 200 + rng.Intn(2301)
		slack := []float64{0.25, 0.05, 0.15, 0.4}[c%4]
		ps = append(ps, pairShapedProblem(rng, n, k, 40+rng.Intn(300), c%3 != 0, slack))
	}
	return ps
}

// planDigest hashes every plan's cost, per-sink overflow and per-source
// portions (sink and amount bits, in order).
func planDigest(t *testing.T, ps []*Problem) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i, p := range ps {
		sol, err := Solve(p)
		if err != nil {
			t.Fatalf("problem %d: %v", i, err)
		}
		put(math.Float64bits(sol.Cost))
		for _, o := range sol.Overflow {
			put(math.Float64bits(o))
		}
		for _, portions := range sol.Assign {
			put(uint64(len(portions)))
			for _, pr := range portions {
				put(uint64(pr.Sink))
				put(math.Float64bits(pr.Amount))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSolveGoldenPlans pins the plans of goldenProblems, solved with a
// fresh buffer set per solve and with one workspace reused across them.
func TestSolveGoldenPlans(t *testing.T) {
	ps := goldenProblems()
	if got := planDigest(t, ps); got != goldenPlanDigest {
		t.Fatalf("plan digest %s, want %s", got, goldenPlanDigest)
	}
	ws := NewWorkspace()
	for _, p := range ps {
		p.Workspace = ws
	}
	if got := planDigest(t, ps); got != goldenPlanDigest {
		t.Fatalf("with a reused workspace: plan digest %s, want %s", got, goldenPlanDigest)
	}
}
