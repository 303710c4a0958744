package flow_test

import (
	"errors"
	"math"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/flow"
)

// TestNSCertifiedOnFBPGrids checks every feasible FBP-shaped simplex
// solution against the independent LP-duality certificate of
// internal/certify (dual feasibility, complementary slackness,
// conservation).
func TestNSCertifiedOnFBPGrids(t *testing.T) {
	var chk certify.Checker
	certified := 0
	for seed := int64(0); seed < 60; seed++ {
		_, g := flow.RandomGridMCF(seed, false)
		if _, err := g.SolveNS(); err != nil {
			var inf *flow.ErrInfeasible
			if !errors.As(err, &inf) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			continue
		}
		if err := chk.Flow(g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		certified++
	}
	if certified < 40 {
		t.Fatalf("only %d of 60 instances certified", certified)
	}
}

// TestNSDemandNodesAbsorbWithinDemand pins why SolveNS caps each root
// arc of its starting tree at the demand it carries: demand node 2 has a
// zero-cost arc to demand node 1 and D > S, so an uncapped root arc into
// node 2 can pass root flow on to node 1 and leave node 2 shipping real
// flow out, which certify rejects as absorbing below zero. With this arc
// order the uncapped start does end there.
func TestNSDemandNodesAbsorbWithinDemand(t *testing.T) {
	g := flow.NewMinCostFlow(4)
	g.SetSupply(0, 2)
	g.SetSupply(1, -1)
	g.SetSupply(2, -2)
	g.SetSupply(3, -3)
	g.AddArc(1, 0, flow.Inf, 2)
	g.AddArc(2, 1, flow.Inf, 0)
	g.AddArc(0, 1, flow.Inf, 2)
	g.AddArc(0, 3, flow.Inf, 0)
	cost, err := g.SolveNS()
	if err != nil || cost != 0 {
		t.Fatalf("cost = %v, err = %v; want 0, nil", cost, err)
	}
	if err := (&certify.Checker{}).Flow(g); err != nil {
		t.Fatal(err)
	}
	absorbed := make([]float64, g.NumNodes())
	for id := flow.ArcID(0); int(id) < g.NumArcs(); id++ {
		from, to, _, _ := g.ArcInfo(id)
		absorbed[from] -= g.Flow(id)
		absorbed[to] += g.Flow(id)
	}
	for v := 1; v < g.NumNodes(); v++ {
		if d := -g.Supply(v); absorbed[v] < 0 || absorbed[v] > d {
			t.Fatalf("demand node %d absorbs %g outside [0, %g]", v, absorbed[v], d)
		}
	}
}

// TestCertifyRejectsPerturbedFlow corrupts one arc flow of a certified
// solution and expects the certificate to name the violated condition:
// extra flow on an uncapacitated arc breaks conservation at its ends,
// flow beyond a finite capacity breaks capacity feasibility.
func TestCertifyRejectsPerturbedFlow(t *testing.T) {
	caught := map[string]int{}
	for seed := int64(0); seed < 10; seed++ {
		var free, capped flow.ArcID = -1, -1
		_, g := flow.RandomGridMCF(seed, false)
		if _, err := g.SolveNS(); err != nil {
			continue
		}
		for id := flow.ArcID(0); int(id) < g.NumArcs(); id++ {
			_, _, capacity, _ := g.ArcInfo(id)
			switch {
			case math.IsInf(capacity, 1) && g.Flow(id) > 0.5 && free < 0:
				free = id
			case !math.IsInf(capacity, 1) && capped < 0:
				capped = id
			}
		}
		for _, c := range []struct {
			arc       flow.ArcID
			invariant string
		}{
			{free, "conservation"},
			{capped, "capacity-feasibility"},
		} {
			if c.arc < 0 {
				continue
			}
			_, h := flow.RandomGridMCF(seed, false)
			if _, err := h.SolveNS(); err != nil {
				t.Fatal(err)
			}
			_, _, capacity, _ := h.ArcInfo(c.arc)
			delta := 0.5
			if !math.IsInf(capacity, 1) {
				delta = capacity - h.Flow(c.arc) + 1
			}
			h.PerturbFlow(c.arc, delta)
			err := (&certify.Checker{}).Flow(h)
			var ce *certify.Error
			if !errors.As(err, &ce) || ce.Invariant != c.invariant {
				t.Fatalf("seed %d arc %d: err = %v, want %s violation", seed, c.arc, err, c.invariant)
			}
			caught[c.invariant]++
		}
	}
	if caught["conservation"] == 0 || caught["capacity-feasibility"] == 0 {
		t.Fatalf("perturbations caught %v, want both kinds", caught)
	}
}
