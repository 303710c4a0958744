// Voltage islands demonstrates the paper's §I motivation: different
// voltage domains are placed with exclusive movebounds. The FBP placer
// respects them exactly, while the naive RQL-style baseline leaves
// violations — the behaviour Tables IV/V report.
//
//	go run ./examples/voltage_islands
package main

import (
	"fmt"
	"log"
	"time"

	"fbplace"
)

func main() {
	inst, err := fbplace.Generate(fbplace.ChipSpec{
		Name:     "voltage-islands",
		NumCells: 6000,
		Seed:     11,
		Movebounds: []fbplace.MoveboundSpec{
			// Two low-voltage islands (exclusive: no other cells inside)
			// and one relaxed inclusive domain.
			{Kind: fbplace.Exclusive, CellFraction: 0.10, Density: 0.72, NestedIn: -1},
			{Kind: fbplace.Exclusive, CellFraction: 0.07, Density: 0.68, NestedIn: -1},
			{Kind: fbplace.Inclusive, CellFraction: 0.12, Density: 0.70, NestedIn: -1},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("chip: %d cells, %d nets, 3 voltage domains\n",
		inst.N.NumCells(), inst.N.NumNets())

	// FBP placer.
	fbpNet := inst.N.Clone()
	start := time.Now()
	rep, err := fbplace.Place(fbpNet, fbplace.Config{Movebounds: inst.Movebounds})
	if err != nil {
		log.Fatal(err)
	}
	fbpTime := time.Since(start)

	// RQL-style baseline with naive movebound projection + plain
	// legalization.
	rqlNet := inst.N.Clone()
	start = time.Now()
	if _, err := fbplace.PlaceBaseline(rqlNet, fbplace.BaselineConfig{Movebounds: inst.Movebounds}); err != nil {
		log.Fatal(err)
	}
	if _, err := fbplace.Legalize(rqlNet, nil); err != nil {
		log.Fatal(err)
	}
	rqlTime := time.Since(start)
	rqlViol, err := fbplace.CountViolations(rqlNet, inst.Movebounds)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-16s %12s %10s %8s\n", "placer", "HPWL", "time", "viol.")
	fmt.Printf("%-16s %12.0f %10v %8d\n", "BonnPlace FBP", rep.HPWL,
		fbpTime.Round(time.Millisecond), rep.Violations)
	fmt.Printf("%-16s %12.0f %10v %8d\n", "RQL-style", rqlNet.HPWL(),
		rqlTime.Round(time.Millisecond), rqlViol)
	if rep.Violations == 0 && rqlViol > 0 {
		fmt.Println("\nFBP keeps every cell inside its voltage domain; the naive")
		fmt.Println("baseline leaves violations (compare paper Tables IV/V).")
	}
}
