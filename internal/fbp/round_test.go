package fbp

import (
	"testing"

	"fbplace/internal/transport"
)

// TestRoundCapacityAwareTieRule pins the explicit tie rule of the rounding
// step: among a split cell's portions with exactly equal scores, the larger
// amount wins, and among equal amounts the lowest sink index — regardless
// of the order the portions arrive in sol.Assign. Before the rule, rounding
// silently inherited whatever order the transport engine emitted.
func TestRoundCapacityAwareTieRule(t *testing.T) {
	// One split source of size 1; every sink has ample remaining capacity,
	// so score == portion.Amount exactly.
	prob := transport.Problem{
		Supply:   []float64{1},
		Capacity: []float64{10, 10, 10},
	}
	mkSol := func(portions []transport.Portion) *transport.Solution {
		return &transport.Solution{Assign: [][]transport.Portion{portions}}
	}
	round := func(p transport.Problem, sol *transport.Solution) int {
		st := &step{prob: p}
		st.roundCapacityAware(sol)
		return st.rounded[0]
	}
	// Equal amounts on sinks 2 and 1, listed high sink first: the lowest
	// sink index must win the exact tie.
	sol := mkSol([]transport.Portion{{Sink: 2, Amount: 0.5}, {Sink: 1, Amount: 0.5}})
	if got := round(prob, sol); got != 1 {
		t.Fatalf("equal-amount tie: rounded to sink %d, want 1 (lowest index)", got)
	}
	// Same portions in the opposite order: identical outcome.
	sol = mkSol([]transport.Portion{{Sink: 1, Amount: 0.5}, {Sink: 2, Amount: 0.5}})
	if got := round(prob, sol); got != 1 {
		t.Fatalf("equal-amount tie (reordered): rounded to sink %d, want 1", got)
	}
	// Distinct amounts: the larger portion wins even when listed last and
	// even though its sink index is higher.
	sol = mkSol([]transport.Portion{{Sink: 0, Amount: 0.3}, {Sink: 2, Amount: 0.7}})
	if got := round(prob, sol); got != 2 {
		t.Fatalf("majority portion: rounded to sink %d, want 2", got)
	}
	// Equal scores through different amounts (binary fractions, so the
	// arithmetic is exact): sink 0 holds the 0.75 portion but only 0.75
	// capacity, so its penalty 2*(1-0.75) = 0.5 drops its score to 0.25 —
	// exactly sink 1's unpenalized 0.25 portion. The tie goes to the
	// larger stored amount, not the listing order.
	prob2 := transport.Problem{
		Supply:   []float64{1},
		Capacity: []float64{0.75, 10},
	}
	sol = mkSol([]transport.Portion{{Sink: 1, Amount: 0.25}, {Sink: 0, Amount: 0.75}})
	if got := round(prob2, sol); got != 0 {
		t.Fatalf("penalized tie: rounded to sink %d, want 0 (larger amount)", got)
	}
	sol = mkSol([]transport.Portion{{Sink: 0, Amount: 0.75}, {Sink: 1, Amount: 0.25}})
	if got := round(prob2, sol); got != 0 {
		t.Fatalf("penalized tie (reordered): rounded to sink %d, want 0", got)
	}
}
