package fbp

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"fbplace/internal/flow"
	"fbplace/internal/obs"
	"fbplace/internal/transport"
)

// recordingChecker records, per certified transportation, the area each
// sink may hold (capacity plus the overflow the solve took) and fails
// each call with err.
type recordingChecker struct {
	limits [][]float64
	err    error
}

func (c *recordingChecker) Flow(*flow.MinCostFlow) error { return nil }

func (c *recordingChecker) Transport(p *transport.Problem, sol *transport.Solution) error {
	limit := append([]float64(nil), p.Capacity...)
	for j, o := range sol.Overflow {
		limit[j] += o
	}
	c.limits = append(c.limits, limit)
	return c.err
}

// TestElasticBlockRoutesStarvedMoveboundCell is the regression test for
// a unit no capacity relaxation could route: a movebound cell of area
// 1.5 whose only admissible region has capacity 0.008 (64x that is 0.51).
// One elastic solve spills the missing 1.492 onto that region, moves the
// unconstrained cell that shared it instead of overflowing further, leaves
// the unit's capacities untouched, and is certified against capacity
// plus overflow.
func TestElasticBlockRoutesStarvedMoveboundCell(t *testing.T) {
	base := []float64{0.008, 4, 4}
	problem := func() *transport.Problem {
		return &transport.Problem{
			Supply:   []float64{1.5, 1, 1},
			Capacity: append([]float64(nil), base...),
			Arcs: [][]transport.Arc{
				{{Sink: 0, Cost: 0.5}}, // the movebound cell
				{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 2}, {Sink: 2, Cost: 3}},
				{{Sink: 0, Cost: 1}, {Sink: 1, Cost: 0}, {Sink: 2, Cost: 1}},
			},
		}
	}
	solve := func(chk *recordingChecker, p *transport.Problem) (*transport.Solution, *obs.Recorder, error) {
		rec := obs.New(nil)
		p.Obs = rec
		r := &realizer{cfg: Config{Check: chk}, rec: rec}
		sol, err := r.solveUnit(p)
		if !reflect.DeepEqual(p.Capacity, base) {
			t.Fatalf("capacities %v after the solve, want %v untouched", p.Capacity, base)
		}
		return sol, rec, err
	}

	t.Run("one solve spills the shortfall", func(t *testing.T) {
		chk := &recordingChecker{}
		sol, rec, err := solve(chk, problem())
		if err != nil {
			t.Fatal(err)
		}
		if got := rec.Counter("transport.solves"); got != 1 {
			t.Fatalf("transport.solves = %v, want 1", got)
		}
		const want = 1.5 - 0.008
		if math.Abs(sol.Overflow[0]-want) > 1e-9 || sol.Overflow[1] != 0 || sol.Overflow[2] != 0 {
			t.Fatalf("overflow %v, want [%g 0 0]", sol.Overflow, want)
		}
		if got := rec.Counter("transport.overflow"); math.Abs(got-want) > 1e-9 {
			t.Fatalf("transport.overflow = %v, want %g", got, want)
		}
		if got := rec.Counter("transport.overflow_solves"); got != 1 {
			t.Fatalf("transport.overflow_solves = %v, want 1", got)
		}
		if r := sol.Rounded(); r[0] != 0 || r[1] != 1 || r[2] != 1 {
			t.Fatalf("rounded %v, want [0 1 1]", r)
		}
		if len(chk.limits) != 1 || math.Abs(chk.limits[0][0]-1.5) > 1e-9 ||
			chk.limits[0][1] != base[1] || chk.limits[0][2] != base[2] {
			t.Fatalf("checker saw limits %v, want [[1.5 %g %g]]", chk.limits, base[1], base[2])
		}
	})

	t.Run("checker error", func(t *testing.T) {
		chk := &recordingChecker{err: errors.New("certify: rejected")}
		_, _, err := solve(chk, problem())
		if !errors.Is(err, chk.err) || len(chk.limits) != 1 {
			t.Fatalf("err %v after %d checker calls; want the checker's error after 1", err, len(chk.limits))
		}
	})

	t.Run("canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := problem()
		p.Ctx = ctx
		chk := &recordingChecker{}
		_, _, err := solve(chk, p)
		if !errors.Is(err, context.Canceled) || len(chk.limits) != 0 {
			t.Fatalf("err %v after %d checker calls; want context.Canceled after 0", err, len(chk.limits))
		}
	})
}
