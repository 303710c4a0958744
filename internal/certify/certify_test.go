package certify

import (
	"errors"
	"testing"

	"fbplace/internal/flow"
	"fbplace/internal/transport"
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

func wantViolation(t *testing.T, err error, layer, invariant string) {
	t.Helper()
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a certify.Error", err)
	}
	if ce.Layer != layer || ce.Invariant != invariant {
		t.Fatalf("violation %s/%s (%s), want %s/%s", ce.Layer, ce.Invariant, ce.Witness, layer, invariant)
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
	wantViolation(t, (&Checker{}).Flow(g), "flow", "dual-feasibility")
}

// Lowering Pot[1] prices arc 0->1 above zero while it carries the flow.
func TestFlowRejectsLoweredPotential(t *testing.T) {
	g := solvedChain(t)
	g.Duals().Pot[1] -= 0.5
	wantViolation(t, (&Checker{}).Flow(g), "flow", "complementary-slackness")
}

// A supply the solution does not ship breaks conservation.
func TestFlowRejectsUnshippedSupply(t *testing.T) {
	g := solvedChain(t)
	g.SetSupply(0, 3)
	wantViolation(t, (&Checker{}).Flow(g), "flow", "conservation")
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

// spilledTransport is a transportation instance with its solution: sources of
// area 2 and 1 on two sinks of capacity 1, where the first source can only
// use sink 0, so sink 0 takes 1 unit of overflow and sink 1 is exactly
// full.
func spilledTransport() (*transport.Problem, *transport.Solution) {
	p := &transport.Problem{
		Supply:   []float64{2, 1},
		Capacity: []float64{1, 1},
		Arcs: [][]transport.Arc{
			{{Sink: 0, Cost: 1}},
			{{Sink: 0, Cost: 0}, {Sink: 1, Cost: 1}},
		},
	}
	sol := &transport.Solution{
		Assign:   [][]transport.Portion{{{Sink: 0, Amount: 2}}, {{Sink: 1, Amount: 1}}},
		Cost:     3,
		Overflow: []float64{1, 0},
	}
	return p, sol
}

func TestTransportAcceptsOverflow(t *testing.T) {
	p, sol := spilledTransport()
	if err := (&Checker{}).Transport(p, sol); err != nil {
		t.Fatal(err)
	}
	got, err := transport.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := (&Checker{}).Transport(p, got); err != nil {
		t.Fatalf("engine solution: %v", err)
	}
}

// A load above capacity plus overflow breaks column feasibility.
func TestTransportRejectsLoadOverOverflow(t *testing.T) {
	p, sol := spilledTransport()
	sol.Overflow[0] = 0.5
	wantViolation(t, (&Checker{}).Transport(p, sol), "transport", "column-feasibility")
}

// Negative overflow would let a solution certify below its capacity.
func TestTransportRejectsNegativeOverflow(t *testing.T) {
	p, sol := spilledTransport()
	sol.Overflow[1] = -0.5
	wantViolation(t, (&Checker{}).Transport(p, sol), "transport", "overflow-sign")
}

// Overflow on a sink with slack left is never optimal: the area fits.
func TestTransportRejectsOverflowWithSlack(t *testing.T) {
	p, sol := spilledTransport()
	p.Capacity[1] = 2
	sol.Overflow[1] = 0.5
	wantViolation(t, (&Checker{}).Transport(p, sol), "transport", "overflow-with-slack")
}
