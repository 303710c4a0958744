// fbpbench regenerates the paper's experiment tables on synthetic
// instances.
//
//	fbpbench -table all            # everything (slow)
//	fbpbench -table 2 -scale 0.002 # Table II at 0.2% of published sizes
//	fbpbench -table speedup        # §IV.B parallel realization speedups
//	fbpbench -table 1 -trace t.json -stats
//	fbpbench -table 1 -cpuprofile cpu.out  # then: go tool pprof cpu.out
//
// Tables: 1 (FBP sizes/runtimes), 2 (no movebounds), 3 (instance
// characteristics), 4 (inclusive movebounds), 5 (exclusive movebounds),
// 6 (runtime split), 7 (ISPD-2006-style), speedup, ablation, feasibility.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"fbplace/internal/exp"
	"fbplace/internal/obs"
)

func main() {
	table := flag.String("table", "all", "which table to run: 1..7, speedup, ablation, feasibility, all")
	scale := flag.Float64("scale", exp.DefaultScale, "fraction of the published cell counts to generate")
	chips := flag.Int("chips", 0, "limit the number of chips for table 2 (0 = all 21)")
	trace := flag.String("trace", "", "write a JSON-lines trace of the runs to this file")
	stats := flag.Bool("stats", false, "print the phase summary tree and counters at the end")
	timeout := flag.Duration("timeout", 0, "wall-clock budget per table (0 = none); a table that exceeds it fails with context.DeadlineExceeded")
	ckpt := flag.String("checkpoint", "", "write per-run crash-safe placement checkpoints under this directory")
	resume := flag.Bool("resume", false, "resume interrupted placements from -checkpoint (same tables, scale and flags required)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	certify := flag.Bool("certify", false, "independently certify every level and the final result of each run (internal/certify); overhead lands in the phase times")
	flag.Parse()
	if *cpuprofile != "" {
		if err := startCPUProfile(*cpuprofile); err != nil {
			fatal(err)
		}
		defer stopProfile()
	}

	if *resume && *ckpt == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	exp.SetCheckpoint(*ckpt, *resume)
	exp.SetCertify(*certify)

	var rec *obs.Recorder
	var traceSink *obs.JSONSink
	var traceFile *os.File
	if *trace != "" || *stats {
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			traceSink = obs.NewJSONSink(f)
			rec = obs.New(traceSink)
		} else {
			rec = obs.New(nil)
		}
		exp.SetRecorder(rec)
	}

	// Each selected table gets a fresh wall-clock budget: run installs a
	// new timeout context through the exp package hook (mirroring
	// exp.SetRecorder) whenever it selects a table, cancelling the
	// previous one first.
	cancelBudget := func() {}
	defer func() { cancelBudget() }()
	run := func(name string) bool {
		if *table != "all" && *table != name {
			return false
		}
		if *timeout > 0 {
			cancelBudget()
			ctx, cancel := context.WithTimeout(context.Background(), *timeout)
			cancelBudget = cancel
			exp.SetContext(ctx)
		}
		return true
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "fbpbench: table %s: %v\n", name, err)
		exit(1)
	}
	ran := false

	if run("1") {
		ran = true
		sp := rec.StartSpan("table1")
		spec, rows, err := exp.Table1(*scale)
		sp.End()
		if err != nil {
			fail("1", err)
		}
		exp.PrintTable1(os.Stdout, spec, rows)
		fmt.Fprintln(os.Stdout)
	}
	if run("2") {
		ran = true
		sp := rec.StartSpan("table2")
		rows, err := exp.Table2(*scale, *chips)
		sp.End()
		if err != nil {
			fail("2", err)
		}
		exp.PrintCompare(os.Stdout, "TABLE II: Results without movebounds (RQL-style baseline vs BonnPlace FBP)", rows, false)
		fmt.Fprintln(os.Stdout)
	}
	if run("3") {
		ran = true
		rows, _, err := exp.Table3(*scale)
		if err != nil {
			fail("3", err)
		}
		exp.PrintTable3(os.Stdout, rows)
		fmt.Fprintln(os.Stdout)
	}
	var t4 []exp.CompareRow
	if run("4") || run("6") {
		ran = true
		var err error
		sp := rec.StartSpan("table4")
		t4, err = exp.Table4(*scale)
		sp.End()
		if err != nil {
			fail("4", err)
		}
	}
	if run("4") {
		exp.PrintCompare(os.Stdout, "TABLE IV: Results with inclusive movebounds", t4, true)
		fmt.Fprintln(os.Stdout)
		if *table == "4" {
			// Table VI is the runtime split of the same runs.
			exp.PrintTable6(os.Stdout, t4)
			fmt.Fprintln(os.Stdout)
		}
	}
	if run("5") {
		ran = true
		sp := rec.StartSpan("table5")
		rows, err := exp.Table5(*scale)
		sp.End()
		if err != nil {
			fail("5", err)
		}
		exp.PrintCompare(os.Stdout, "TABLE V: Results with exclusive movebounds", rows, true)
		fmt.Fprintln(os.Stdout)
	}
	if run("6") {
		exp.PrintTable6(os.Stdout, t4)
		fmt.Fprintln(os.Stdout)
	}
	if run("7") {
		ran = true
		sp := rec.StartSpan("table7")
		rows, err := exp.Table7(*scale)
		sp.End()
		if err != nil {
			fail("7", err)
		}
		exp.PrintTable7(os.Stdout, rows)
		fmt.Fprintln(os.Stdout)
	}
	if run("speedup") {
		ran = true
		sp := rec.StartSpan("speedup")
		rows, err := exp.Speedup(*scale, runtime.GOMAXPROCS(0))
		sp.End()
		if err != nil {
			fail("speedup", err)
		}
		exp.PrintSpeedup(os.Stdout, rows)
		fmt.Fprintln(os.Stdout)
	}
	if run("ablation") {
		ran = true
		sp := rec.StartSpan("ablation")
		rows, err := exp.AblationRecursive(*scale)
		if err != nil {
			sp.End()
			fail("ablation", err)
		}
		exp.PrintAblation(os.Stdout, "Ablation A1: FBP vs recursive partitioning (movebounded chip)", rows, true)
		rows, err = exp.AblationLocalQP(*scale)
		sp.End()
		if err != nil {
			fail("ablation", err)
		}
		exp.PrintAblation(os.Stdout, "Ablation A2: realization with/without local QP", rows, false)
		fmt.Fprintln(os.Stdout)
	}
	if run("feasibility") {
		ran = true
		d, feasible, err := exp.FeasibilityBench(*scale)
		if err != nil {
			fail("feasibility", err)
		}
		fmt.Fprintf(os.Stdout, "Theorem-2 feasibility check on the largest movebounded chip: %v (feasible=%v)\n\n", d, feasible)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "fbpbench: unknown table %q (want 1..7, speedup, ablation, feasibility, all)\n", *table)
		exit(2)
	}

	rec.Flush()
	if *stats {
		rec.WriteSummary(os.Stdout)
	}
	if traceFile != nil {
		if err := traceSink.Err(); err != nil {
			fatal(fmt.Errorf("trace: %w", err))
		}
		if err := traceFile.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stdout, "wrote %s\n", *trace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fbpbench:", err)
	exit(1)
}

// stopProfile ends the -cpuprofile recording (a no-op without one). exit
// runs it too, so error exits keep their profile.
var stopProfile = func() {}

// startCPUProfile starts a runtime/pprof CPU profile written to path.
func startCPUProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the start failure is the error worth reporting
		return fmt.Errorf("cpuprofile: %w", err)
	}
	stopProfile = func() {
		stopProfile = func() {}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "fbpbench: cpuprofile:", err)
		}
	}
	return nil
}

// exit stops the CPU profile, then exits with code.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}
