package transport

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/flow"
	"fbplace/internal/obs"
)

func TestSolveSingleSourceSingleSink(t *testing.T) {
	p := &Problem{
		Supply:   []float64{3},
		Capacity: []float64{5},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 2}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-6) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 6", name, sol.Cost)
		}
		if got := sol.Rounded(); got[0] != 0 {
			t.Fatalf("%s: rounded = %v", name, got)
		}
	}
}

func engines() map[string]func(*Problem) (*Solution, error) {
	return map[string]func(*Problem) (*Solution, error){
		"reference": SolveReference,
		"condensed": condensedOnly,
	}
}

// condensedOnly runs the condensed engine with no reference fallback, so a
// broken engine cannot hide behind the oracle.
func condensedOnly(p *Problem) (*Solution, error) {
	sol, _, err := runCondensed(p)
	return sol, err
}

func TestSolveOverflowMovesCheapestSource(t *testing.T) {
	// Both sources prefer sink 0 (cap 1); source 1 is cheaper to move away.
	p := &Problem{
		Supply:   []float64{1, 1},
		Capacity: []float64{1, 1},
		Arcs: [][]Arc{
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 10}},
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}},
		},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-1) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 1", name, sol.Cost)
		}
		r := sol.Rounded()
		if r[0] != 0 || r[1] != 1 {
			t.Fatalf("%s: rounded = %v", name, r)
		}
	}
}

func TestSolveRespectsAdmissibility(t *testing.T) {
	// Source 0 may only use sink 1 even though sink 0 is free.
	p := &Problem{
		Supply:   []float64{2},
		Capacity: []float64{10, 2},
		Arcs:     [][]Arc{{{Sink: 1, Cost: 7}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := sol.Rounded(); r[0] != 1 {
			t.Fatalf("%s: rounded = %v", name, r)
		}
	}
}

// TestSolveOverflowReported: a source whose only admissible sink is too
// small ships everything there, and the plan reports the excess as that
// sink's overflow instead of failing.
func TestSolveOverflowReported(t *testing.T) {
	p := &Problem{
		Supply:   []float64{5},
		Capacity: []float64{2, 100},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}}}, // big sink inadmissible
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(sol.Overflow) != 2 || math.Abs(sol.Overflow[0]-3) > 1e-9 || sol.Overflow[1] != 0 {
			t.Fatalf("%s: overflow = %v, want [3 0]", name, sol.Overflow)
		}
		if math.Abs(sol.Cost-5) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 5 (overflow is not priced in Cost)", name, sol.Cost)
		}
		if r := sol.Rounded(); r[0] != 0 {
			t.Fatalf("%s: rounded = %v", name, r)
		}
	}
}

func TestSolveNoAdmissibleSink(t *testing.T) {
	p := &Problem{
		Supply:   []float64{1},
		Capacity: []float64{1},
		Arcs:     [][]Arc{nil},
	}
	for name, solve := range engines() {
		if _, err := solve(p); !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

func TestSolveSplitSource(t *testing.T) {
	// One source of size 2 must split across two sinks of capacity 1.
	p := &Problem{
		Supply:   []float64{2},
		Capacity: []float64{1, 1},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}, {Sink: 1, Cost: 3}}},
	}
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-4) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 4", name, sol.Cost)
		}
		if len(sol.Assign[0]) != 2 {
			t.Fatalf("%s: assign = %v, want split", name, sol.Assign[0])
		}
		if sol.NumSplit() != 1 {
			t.Fatalf("%s: NumSplit = %d", name, sol.NumSplit())
		}
	}
}

func TestSolveChainReassignment(t *testing.T) {
	// Classic chain: overflow at sink 0 is resolved by a two-hop shuffle
	// 0 -> 1 -> 2, which is cheaper than the direct move 0 -> 2.
	p := &Problem{
		Supply:   []float64{1, 1, 1},
		Capacity: []float64{1, 1, 1},
		Arcs: [][]Arc{
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}, {Sink: 2, Cost: 100}},
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}, {Sink: 2, Cost: 100}},
			{{Sink: 0, Cost: 50}, {Sink: 1, Cost: 0}, {Sink: 2, Cost: 2}},
		},
	}
	// Optimal: sources 0,1 at sinks 0,1; source 2 moves to sink 2: cost 0+1+2.
	for name, solve := range engines() {
		sol, err := solve(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(sol.Cost-3) > 1e-9 {
			t.Fatalf("%s: cost = %v, want 3", name, sol.Cost)
		}
	}
}

// randomProblem builds a feasible random instance with float costs (to
// avoid ties) and returns it.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(12)
	k := 1 + rng.Intn(5)
	p := &Problem{
		Supply:   make([]float64, n),
		Capacity: make([]float64, k),
		Arcs:     make([][]Arc, n),
	}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = 0.5 + rng.Float64()*3
		total += p.Supply[i]
	}
	// Every source admissible to a random nonempty sink subset always
	// including sink 0; sink 0 large enough to guarantee feasibility.
	for i := range p.Arcs {
		p.Arcs[i] = append(p.Arcs[i], Arc{Sink: 0, Cost: rng.Float64() * 10})
		for j := 1; j < k; j++ {
			if rng.Intn(2) == 0 {
				p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: rng.Float64() * 10})
			}
		}
	}
	for j := 1; j < k; j++ {
		p.Capacity[j] = rng.Float64() * total / float64(k)
	}
	p.Capacity[0] = total
	return p
}

// Property: the condensed engine matches the reference engine's optimal
// cost on random instances.
func TestCondensedMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		ref, err1 := SolveReference(p)
		got, err2 := condensedOnly(p)
		if err1 != nil || err2 != nil {
			return err1 != nil && err2 != nil // both must agree on feasibility
		}
		return math.Abs(ref.Cost-got.Cost) < 1e-6*(1+math.Abs(ref.Cost))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: solutions ship all supply, respect capacities, take no
// overflow when the capacities admit a plan, and split at most k-1
// sources (almost-integrality, paper §III / [4]).
func TestSolutionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng)
		sol, err := condensedOnly(p)
		if err != nil {
			return false
		}
		return checkSolution(p, sol) == nil && sol.TotalOverflow() == 0 && sol.NumSplit() <= p.NumSinks()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkSolution verifies that sol ships all supply over admissible arcs
// and respects capacities, widened by the overflow the solve took (only on
// sinks filled to capacity).
func checkSolution(p *Problem, sol *Solution) error {
	loads := make([]float64, p.NumSinks())
	for i, ps := range sol.Assign {
		sum := 0.0
		for _, pr := range ps {
			if pr.Amount <= 0 {
				return fmt.Errorf("source %d: non-positive portion %v", i, pr)
			}
			loads[pr.Sink] += pr.Amount
			sum += pr.Amount
			ok := false
			for _, a := range p.Arcs[i] {
				if a.Sink == pr.Sink {
					ok = true
					break
				}
			}
			if !ok {
				return fmt.Errorf("source %d: inadmissible sink %d", i, pr.Sink)
			}
		}
		if math.Abs(sum-p.Supply[i]) > 1e-6 {
			return fmt.Errorf("source %d: ships %g of %g", i, sum, p.Supply[i])
		}
	}
	if len(sol.Overflow) != p.NumSinks() {
		return fmt.Errorf("%d overflow entries for %d sinks", len(sol.Overflow), p.NumSinks())
	}
	for j, l := range loads {
		over := sol.Overflow[j]
		if over < 0 || (over > 0 && l < p.Capacity[j]-1e-6) {
			return fmt.Errorf("sink %d: overflow %g at load %g, capacity %g", j, over, l, p.Capacity[j])
		}
		if l > p.Capacity[j]+over+1e-6 {
			return fmt.Errorf("sink %d: load %g over capacity %g + overflow %g", j, l, p.Capacity[j], over)
		}
	}
	return nil
}

func TestRoundedMajority(t *testing.T) {
	sol := &Solution{Assign: [][]Portion{
		{{Sink: 2, Amount: 5}, {Sink: 1, Amount: 1}},
		{{Sink: 0, Amount: 1}},
		nil,
	}}
	got := sol.Rounded()
	if got[0] != 2 || got[1] != 0 || got[2] != -1 {
		t.Fatalf("Rounded = %v", got)
	}
}

func BenchmarkCondensedLarge(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	n, k := 2000, 12
	p := &Problem{
		Supply:   make([]float64, n),
		Capacity: make([]float64, k),
		Arcs:     make([][]Arc, n),
	}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = 0.5 + rng.Float64()
		total += p.Supply[i]
		for j := 0; j < k; j++ {
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: rng.Float64() * 100})
		}
	}
	for j := range p.Capacity {
		p.Capacity[j] = 1.1 * total / float64(k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

// moveboundProblem builds a placement-shaped instance with k sinks on a
// grid: sources pile up around a few hot spots (so several sinks start
// overloaded), costs are integer L1 distances (so ties are everywhere),
// and up to three movebounds restrict their sources to a rectangle of
// sinks. Each movebound carries at most 30% of its rectangle's capacity,
// so any union of movebound rectangles has room for its sources and the
// instance is feasible.
func moveboundProblem(rng *rand.Rand, k, n int) *Problem {
	gx := 4
	for gx*gx < k {
		gx++
	}
	const pitch = 10
	sinkX := func(j int) int { return (j % gx) * pitch }
	sinkY := func(j int) int { return (j / gx) * pitch }
	gy := (k + gx - 1) / gx

	p := &Problem{Supply: make([]float64, n), Capacity: make([]float64, k), Arcs: make([][]Arc, n)}
	integral := rng.Intn(2) == 0
	total := 0.0
	for i := range p.Supply {
		if integral {
			p.Supply[i] = float64(1 + rng.Intn(4))
		} else {
			p.Supply[i] = 0.5 + rng.Float64()*3
		}
		total += p.Supply[i]
	}
	slack := 1.05 + rng.Float64()*0.45
	weight := make([]float64, k)
	wsum := 0.0
	for j := range weight {
		weight[j] = 0.5 + rng.Float64()
		wsum += weight[j]
	}
	for j := range p.Capacity {
		p.Capacity[j] = slack * total * weight[j] / wsum
	}

	type rect struct{ x0, y0, x1, y1 int } // sink grid cells, inclusive
	var mbs []rect
	var budget []float64
	for m := rng.Intn(4); m > 0; m-- {
		r := rect{x0: rng.Intn(gx), y0: rng.Intn(gy)}
		r.x1 = r.x0 + rng.Intn(gx-r.x0)
		r.y1 = r.y0 + rng.Intn(gy-r.y0)
		capIn := 0.0
		for j := 0; j < k; j++ {
			if x, y := j%gx, j/gx; x >= r.x0 && x <= r.x1 && y >= r.y0 && y <= r.y1 {
				capIn += p.Capacity[j]
			}
		}
		mbs = append(mbs, r)
		budget = append(budget, 0.3*capIn)
	}

	spots := 1 + rng.Intn(4)
	hx, hy := make([]int, spots), make([]int, spots)
	for h := range hx {
		hx[h], hy[h] = rng.Intn(gx*pitch), rng.Intn(gy*pitch)
	}
	for i := range p.Arcs {
		h := rng.Intn(spots)
		sx, sy := hx[h]+rng.Intn(2*pitch+1)-pitch, hy[h]+rng.Intn(2*pitch+1)-pitch
		mb := -1
		if m := rng.Intn(len(mbs) + 1); m < len(mbs) && budget[m] >= p.Supply[i] {
			mb = m
			budget[m] -= p.Supply[i]
		}
		for j := 0; j < k; j++ {
			x, y := j%gx, j/gx
			if mb >= 0 {
				r := mbs[mb]
				if x < r.x0 || x > r.x1 || y < r.y0 || y > r.y1 {
					continue
				}
			}
			d := math.Abs(float64(sx-sinkX(j))) + math.Abs(float64(sy-sinkY(j)))
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: d})
		}
	}
	return p
}

// initialOverloads counts the sinks overloaded by the engine's starting
// pseudoflow (every source at its cheapest sink, lowest index on ties).
func initialOverloads(p *Problem) int {
	load := make([]float64, p.NumSinks())
	for i, arcs := range p.Arcs {
		best, bestC := -1, math.Inf(1)
		for _, a := range arcs {
			if a.Cost < bestC || (a.Cost == bestC && a.Sink < best) {
				best, bestC = a.Sink, a.Cost
			}
		}
		load[best] += p.Supply[i]
	}
	over := 0
	for j, l := range load {
		if l > p.Capacity[j] {
			over++
		}
	}
	return over
}

// TestCondensedLargeKMatchesReference checks the condensed engine alone
// (no reference fallback) on large-k, tie-heavy, movebound-shaped
// instances whose overloads sit at several sinks, so successive
// augmentations start their searches from different sinks: the cost must
// match the reference engine, the plan must be valid, and a second solve
// of the same instance must reproduce the plan bit for bit. The k-1 split
// bound is not checked: exact ties make the optimum non-unique, and the
// tie-batched augmentation (like the reference engine) can stop at a
// non-vertex optimum with more split sources.
func TestCondensedLargeKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	cases, multi := 40, 0
	if testing.Short() {
		cases = 10
	}
	for c := 0; c < cases; c++ {
		k := 16 + rng.Intn(185)
		n := 2*k + rng.Intn(k+1)
		if n > 500 {
			n = 500
		}
		p := moveboundProblem(rng, k, n)
		if initialOverloads(p) >= 2 {
			multi++
		}
		ref, err := SolveReference(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): reference: %v", c, k, n, err)
		}
		got, st, err := runCondensed(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): condensed: %v", c, k, n, err)
		}
		if st.augs == 0 {
			t.Fatalf("case %d (k=%d n=%d): no augmentation; instance starts feasible", c, k, n)
		}
		if d := math.Abs(ref.Cost - got.Cost); d > 1e-6*(1+math.Abs(ref.Cost)) {
			t.Fatalf("case %d (k=%d n=%d): cost %.9g, reference %.9g", c, k, n, got.Cost, ref.Cost)
		}
		if err := checkSolution(p, got); err != nil {
			t.Fatalf("case %d (k=%d n=%d): %v", c, k, n, err)
		}
		again, _, err := runCondensed(p)
		if err != nil {
			t.Fatalf("case %d: second solve: %v", c, err)
		}
		if !reflect.DeepEqual(got.Assign, again.Assign) || got.Cost != again.Cost {
			t.Fatalf("case %d (k=%d n=%d): second solve differs", c, k, n)
		}
	}
	if multi < cases*3/4 {
		t.Fatalf("only %d of %d cases start with two or more overloaded sinks", multi, cases)
	}
}

// TestCondensedStalePairOffer replays two instances on which the pair
// cache once returned a wrong best candidate: a source offered to a stale
// pair with no best took the best slot although a cheaper presence was
// still at the from-sink, so a search priced that pair too high and the
// plan missed the optimum (one feasible instance, one starved of capacity).
func TestCondensedStalePairOffer(t *testing.T) {
	plain := rand.New(rand.NewSource(864))
	k := 16 + plain.Intn(100)
	p := moveboundProblem(plain, k, 2*k+plain.Intn(k+1))

	starved := rand.New(rand.NewSource(16369))
	k = 2 + starved.Intn(20)
	q := moveboundProblem(starved, k, 2+starved.Intn(50))
	scale := 0.2 + 0.9*starved.Float64()
	for j := range q.Capacity {
		q.Capacity[j] *= scale
	}

	for _, c := range []struct {
		name string
		p    *Problem
	}{{"feasible", p}, {"starved", q}} {
		name, p := c.name, c.p
		ref, err := SolveReference(p)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, _, err := runCondensed(p)
		if err != nil {
			t.Fatalf("%s: condensed: %v", name, err)
		}
		if d := math.Abs(got.Cost - ref.Cost); d > 1e-6*(1+ref.Cost) {
			t.Fatalf("%s: cost %.9g, reference %.9g", name, got.Cost, ref.Cost)
		}
		if d := math.Abs(got.TotalOverflow() - ref.TotalOverflow()); d > 1e-6 {
			t.Fatalf("%s: overflow %.9g, reference %.9g", name, got.TotalOverflow(), ref.TotalOverflow())
		}
	}
}

// assertSolutionsEquivalent fails unless the two solutions agree on cost,
// total overflow, per-source totals and capacity feasibility (portion sets
// may differ between optima with ties, so only aggregate invariants are
// compared).
func assertSolutionsEquivalent(t *testing.T, p *Problem, got, want *Solution) {
	t.Helper()
	if math.Abs(got.Cost-want.Cost) > 1e-6*(1+math.Abs(want.Cost)) {
		t.Fatalf("cost %v, want %v", got.Cost, want.Cost)
	}
	loads := make([]float64, p.NumSinks())
	for i, ps := range got.Assign {
		sum := 0.0
		for _, pr := range ps {
			sum += pr.Amount
			loads[pr.Sink] += pr.Amount
		}
		if math.Abs(sum-p.Supply[i]) > 1e-6 {
			t.Fatalf("source %d ships %v, supply %v", i, sum, p.Supply[i])
		}
	}
	if d := math.Abs(got.TotalOverflow() - want.TotalOverflow()); d > 1e-6 {
		t.Fatalf("overflow %v, want %v", got.TotalOverflow(), want.TotalOverflow())
	}
	if err := checkSolution(p, got); err != nil {
		t.Fatal(err)
	}
	if got.NumSplit() > p.NumSinks()-1 {
		t.Fatalf("NumSplit = %d > k-1 = %d", got.NumSplit(), p.NumSinks()-1)
	}
}

// Satellite: a faultsim-armed condensed failure must fall back to the
// reference engine with a correct Solution (portions, NumSplit, overflow)
// and a degrade counter bump. Odd trials are starved to 30% of their
// capacities, so the fallback must take the same overflow.
func TestCondensedFallbackFaultsim(t *testing.T) {
	defer faultsim.Reset()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		p := randomProblem(rng)
		starved := trial%2 == 1
		if starved {
			for j := range p.Capacity {
				p.Capacity[j] *= 0.3
			}
		}
		want, err := SolveReference(p)
		if err != nil {
			continue
		}
		if starved && want.TotalOverflow() == 0 {
			t.Fatalf("trial %d: starved problem took no overflow", trial)
		}
		if err := faultsim.Arm("transport.condensed.fail", faultsim.Schedule{}); err != nil {
			t.Fatal(err)
		}
		rec := obs.New(nil)
		p.Obs = rec
		p.Degrade = degrade.New(rec)
		got, err := Solve(p)
		faultsim.Disarm("transport.condensed.fail")
		if err != nil {
			t.Fatalf("trial %d: fallback did not rescue the solve: %v", trial, err)
		}
		assertSolutionsEquivalent(t, p, got, want)
		if got := rec.Counter("degrade.transport.condensed"); got != 1 {
			t.Fatalf("trial %d: degrade.transport.condensed = %v, want 1", trial, got)
		}
		if p.Degrade.Len() != 1 {
			t.Fatalf("trial %d: degrade log has %d events, want 1", trial, p.Degrade.Len())
		}
		ev := p.Degrade.Events()[0]
		if ev.Stage != "transport.condensed" || ev.Fallback != "reference-engine" {
			t.Fatalf("trial %d: degrade event %+v", trial, ev)
		}
	}
}

// Satellite: fallbackWorthy must treat a solver stall as an engine
// failure (retry on the reference path) but never retry infeasibility
// certificates or context aborts.
func TestFallbackWorthySyntheticStall(t *testing.T) {
	stall := fmt.Errorf("transport: %w", &flow.ErrStalled{Pivots: 12345})
	if !fallbackWorthy(stall) {
		t.Fatal("a stall must be fallback-worthy")
	}
	if !fallbackWorthy(errors.New("transport: degenerate augmentation (move 0)")) {
		t.Fatal("an internal engine defect must be fallback-worthy")
	}
	if fallbackWorthy(fmt.Errorf("%w: 3 unrouted", ErrInfeasible)) {
		t.Fatal("infeasibility must not be retried")
	}
	if fallbackWorthy(context.Canceled) || fallbackWorthy(context.DeadlineExceeded) {
		t.Fatal("context aborts must not be retried")
	}
}

// Satellite: when both engines are armed to fail, the chain exhausts and
// the caller receives the reference engine's structured error, with the
// degrade event still recorded.
func TestCondensedFallbackChainExhausted(t *testing.T) {
	defer faultsim.Reset()
	if err := faultsim.Arm("transport.condensed.fail", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	if err := faultsim.Arm("transport.reference.fail", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Supply:   []float64{1},
		Capacity: []float64{2},
		Arcs:     [][]Arc{{{Sink: 0, Cost: 1}}},
		Degrade:  degrade.New(nil),
	}
	_, err := Solve(p)
	if !errors.Is(err, faultsim.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	if p.Degrade.Len() != 1 {
		t.Fatalf("degrade log has %d events, want 1", p.Degrade.Len())
	}
}

// TestCondensedElasticMatchesReference checks the condensed engine alone
// (no reference fallback) against the reference engine on movebound-shaped
// instances whose capacities are scaled by 0.2-1.1, so most cannot be
// served without overflow: total overflow and movement cost must match,
// the plan must ship everything within capacity plus overflow, and a
// second solve must reproduce it bit for bit. A feasible instance must
// take no overflow and match the reference cost.
func TestCondensedElasticMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases, spilled := 60, 0
	if testing.Short() {
		cases = 15
	}
	for c := 0; c < cases; c++ {
		k := 4 + rng.Intn(60)
		n := 2*k + rng.Intn(k+1)
		p := moveboundProblem(rng, k, n)
		scale := 0.2 + 0.9*rng.Float64()
		for j := range p.Capacity {
			p.Capacity[j] *= scale
		}
		ref, err := SolveReference(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): reference: %v", c, k, n, err)
		}
		got, _, err := runCondensed(p)
		if err != nil {
			t.Fatalf("case %d (k=%d n=%d): condensed: %v", c, k, n, err)
		}
		if err := checkSolution(p, got); err != nil {
			t.Fatalf("case %d (k=%d n=%d): %v", c, k, n, err)
		}
		gotO, refO := got.TotalOverflow(), ref.TotalOverflow()
		if d := math.Abs(gotO - refO); d > 1e-6*(1+refO) {
			t.Fatalf("case %d (k=%d n=%d scale %.2f): overflow %.9g, reference %.9g", c, k, n, scale, gotO, refO)
		}
		if d := math.Abs(got.Cost - ref.Cost); d > 1e-6*(1+math.Abs(ref.Cost)) {
			t.Fatalf("case %d (k=%d n=%d scale %.2f): cost %.9g, reference %.9g", c, k, n, scale, got.Cost, ref.Cost)
		}
		if gotO > 0 {
			spilled++
		}
		again, _, err := runCondensed(p)
		if err != nil {
			t.Fatalf("case %d: second solve: %v", c, err)
		}
		if !reflect.DeepEqual(got.Assign, again.Assign) || !reflect.DeepEqual(got.Overflow, again.Overflow) {
			t.Fatalf("case %d (k=%d n=%d): second solve differs", c, k, n)
		}
	}
	if spilled < cases/2 {
		t.Fatalf("only %d of %d cases took overflow", spilled, cases)
	}

	// moveboundProblem instances are feasible as built.
	p := moveboundProblem(rand.New(rand.NewSource(3)), 40, 100)
	got, _, err := runCondensed(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveReference(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Overflow) != p.NumSinks() {
		t.Fatalf("%d overflow entries for %d sinks", len(got.Overflow), p.NumSinks())
	}
	for j, o := range got.Overflow {
		if o != 0 {
			t.Fatalf("feasible instance: sink %d took overflow %g", j, o)
		}
	}
	if d := math.Abs(got.Cost - ref.Cost); d > 1e-6*(1+math.Abs(ref.Cost)) {
		t.Fatalf("feasible instance: cost %.9g, reference %.9g", got.Cost, ref.Cost)
	}
}
