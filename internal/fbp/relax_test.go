package fbp

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"fbplace/internal/flow"
	"fbplace/internal/obs"
	"fbplace/internal/transport"
)

// recordingChecker records the sink capacities of every transportation it
// certifies and fails each call with err.
type recordingChecker struct {
	caps [][]float64
	err  error
}

func (c *recordingChecker) Flow(*flow.MinCostFlow) error { return nil }

func (c *recordingChecker) Transport(p *transport.Problem, _ *transport.Solution) error {
	c.caps = append(c.caps, append([]float64(nil), p.Capacity...))
	return c.err
}

// TestRelaxationLadder drives solveWithRelaxation on capacity-starved
// two-sink blocks: the ladder climbs to the first feasible rung, the
// checker certifies against that rung's inflated capacities, and the
// block's capacities are restored on every exit.
func TestRelaxationLadder(t *testing.T) {
	base := []float64{2, 3}
	// problem ships two sources of supply s each to either sink.
	problem := func(s float64) *transport.Problem {
		arcs := []transport.Arc{{Sink: 0, Cost: 1}, {Sink: 1, Cost: 2}}
		return &transport.Problem{
			Supply:   []float64{s, s},
			Capacity: append([]float64(nil), base...),
			Arcs:     [][]transport.Arc{arcs, arcs},
		}
	}
	ladder := func(chk *recordingChecker, p *transport.Problem) (*transport.Solution, float64, error) {
		rec := obs.New(nil)
		r := &realizer{cfg: Config{Check: chk}, rec: rec}
		sol, err := r.solveWithRelaxation(p)
		if !reflect.DeepEqual(p.Capacity, base) {
			t.Fatalf("capacities %v after the ladder, want %v restored", p.Capacity, base)
		}
		return sol, rec.Counter("fbp.relax.rungs"), err
	}

	t.Run("climbs to first feasible rung", func(t *testing.T) {
		// 5.2 units of supply fit 1.1x (5.5) but not 1.02x (5.1).
		chk := &recordingChecker{}
		sol, rungs, err := ladder(chk, problem(2.6))
		if err != nil || sol == nil {
			t.Fatalf("sol %v, err %v; want a solution", sol, err)
		}
		if rungs != 3 {
			t.Fatalf("fbp.relax.rungs = %v, want 3 (factors 1.001, 1.02, 1.1)", rungs)
		}
		want := [][]float64{{base[0] * 1.1, base[1] * 1.1}}
		if !reflect.DeepEqual(chk.caps, want) {
			t.Fatalf("checker saw capacities %v, want %v", chk.caps, want)
		}
	})

	t.Run("exhausted ladder", func(t *testing.T) {
		chk := &recordingChecker{}
		_, rungs, err := ladder(chk, problem(1000))
		if !errors.Is(err, transport.ErrInfeasible) {
			t.Fatalf("err = %v, want ErrInfeasible", err)
		}
		if rungs != 6 || len(chk.caps) != 0 {
			t.Fatalf("rungs %v, checker calls %d; want 6, 0", rungs, len(chk.caps))
		}
	})

	t.Run("checker error", func(t *testing.T) {
		chk := &recordingChecker{err: errors.New("certify: rejected")}
		_, rungs, err := ladder(chk, problem(2.6))
		if !errors.Is(err, chk.err) {
			t.Fatalf("err = %v, want the checker's error", err)
		}
		if rungs != 3 || len(chk.caps) != 1 {
			t.Fatalf("rungs %v, checker calls %d; want 3, 1", rungs, len(chk.caps))
		}
	})

	t.Run("canceled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		p := problem(2.6)
		p.Ctx = ctx
		chk := &recordingChecker{}
		_, rungs, err := ladder(chk, p)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rungs != 0 || len(chk.caps) != 0 {
			t.Fatalf("rungs %v, checker calls %d; want 0, 0", rungs, len(chk.caps))
		}
	})
}
