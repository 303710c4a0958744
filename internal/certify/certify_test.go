package certify

import (
	"errors"
	"testing"

	"fbplace/internal/flow"
)

// chainMCF is the smallest instance with a strict optimum: 2 units from
// node 0 to node 2, either through node 1 (arcs 0 and 1, cost 1 each) or
// directly (arc 2, cost 3). At the optimum the two-hop route carries
// everything, so Pot[1] = Pot[0]+1 and Pot[2] = Pot[0]+2.
func chainMCF() *flow.MinCostFlow {
	g := flow.NewMinCostFlow(3)
	g.SetSupply(0, 2)
	g.SetSupply(2, -2)
	g.AddArc(0, 1, flow.Inf, 1)
	g.AddArc(1, 2, flow.Inf, 1)
	g.AddArc(0, 2, flow.Inf, 3)
	return g
}

func solvedChain(t *testing.T) *flow.MinCostFlow {
	t.Helper()
	g := chainMCF()
	if cost, err := g.SolveNS(); err != nil || cost != 4 {
		t.Fatalf("SolveNS = %v, %v; want 4, nil", cost, err)
	}
	return g
}

func wantViolation(t *testing.T, err error, invariant string) {
	t.Helper()
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a certify.Error", err)
	}
	if ce.Layer != "flow" || ce.Invariant != invariant {
		t.Fatalf("violation %s/%s (%s), want flow/%s", ce.Layer, ce.Invariant, ce.Witness, invariant)
	}
}

func TestFlowAcceptsSolvedNS(t *testing.T) {
	if err := (&Checker{}).Flow(solvedChain(t)); err != nil {
		t.Fatal(err)
	}
}

// Raising Pot[1] makes the uncapacitated arc 0->1 price below zero: no
// flow can make that dual feasible.
func TestFlowRejectsRaisedPotential(t *testing.T) {
	g := solvedChain(t)
	g.Duals().Pot[1] += 0.5
	wantViolation(t, (&Checker{}).Flow(g), "dual-feasibility")
}

// Lowering Pot[1] prices arc 0->1 above zero while it carries the flow.
func TestFlowRejectsLoweredPotential(t *testing.T) {
	g := solvedChain(t)
	g.Duals().Pot[1] -= 0.5
	wantViolation(t, (&Checker{}).Flow(g), "complementary-slackness")
}

// A supply the solution does not ship breaks conservation.
func TestFlowRejectsUnshippedSupply(t *testing.T) {
	g := solvedChain(t)
	g.SetSupply(0, 3)
	wantViolation(t, (&Checker{}).Flow(g), "conservation")
}

// A failed solve exports no certificate and passes vacuously: the caller
// already holds the solver's error.
func TestFlowPassesFailedSolveVacuously(t *testing.T) {
	g := chainMCF()
	g.SetSupply(0, 5) // 5 units of supply, 2 of demand
	if _, err := g.SolveNS(); err == nil {
		t.Fatal("SolveNS succeeded on an infeasible instance")
	}
	if g.Duals() != nil {
		t.Fatal("failed solve left a certificate")
	}
	if err := (&Checker{}).Flow(g); err != nil {
		t.Fatalf("failed solve: %v", err)
	}
	if err := (&Checker{}).Flow(chainMCF()); err != nil {
		t.Fatalf("unsolved model: %v", err)
	}
}
