// fbplace is the placer CLI: it places an FBPLACE v1 instance file (see
// cmd/genchip) or a freshly generated chip, and reports quality metrics.
//
//	fbplace -i chip.fbp -o placed.fbp
//	fbplace -cells 20000 -mode rql
//	fbplace -i chip.fbp -dump-flow 8      # print the §IV.A flow plan
//	fbplace -i adaptec5.aux               # ISPD Bookshelf benchmarks
//	fbplace -cells 20000 -cpuprofile cpu.out  # then: go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"fbplace"
	"fbplace/internal/bookshelf"
	"fbplace/internal/chipio"
	"fbplace/internal/faultsim"
	"fbplace/internal/plot"
	"fbplace/internal/rql"
)

func main() {
	in := flag.String("i", "", "input instance file (FBPLACE v1); empty = generate")
	out := flag.String("o", "", "write the placed instance to this file")
	cells := flag.Int("cells", 10000, "cells to generate when no input file is given")
	seed := flag.Int64("seed", 1, "generator seed")
	mode := flag.String("mode", "fbp", "placer: fbp, recursive, or rql")
	cluster := flag.Float64("cluster", 0, "BestChoice cluster ratio (0 = off)")
	density := flag.Float64("density", 0.97, "target placement density")
	workers := flag.Int("workers", 0, "parallel realization workers (0 = GOMAXPROCS)")
	dumpFlow := flag.Int("dump-flow", 0, "print the MinCostFlow plan on a k x k grid and exit")
	skipLegal := flag.Bool("skip-legalization", false, "stop after global placement")
	svg := flag.String("svg", "", "write an SVG rendering of the final placement")
	detail := flag.Int("detail", 0, "detailed-placement passes after legalization (0 = off)")
	trace := flag.String("trace", "", "write a JSON-lines trace of the run to this file")
	stats := flag.Bool("stats", false, "print the phase summary tree and counters after placement")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for the placement run (0 = none)")
	certifyF := flag.Bool("certify", false, "independently certify every level and the final result; on failure re-run the placement once")
	ckptDir := flag.String("checkpoint", "", "write per-level crash-safe checkpoints into this directory")
	resume := flag.Bool("resume", false, "resume from the newest checkpoint in -checkpoint (same instance and flags required)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	dumpHex := flag.String("dump-hex", "", "write final positions as hex float64 bits to this file (bit-exact comparison)")
	var faults []string
	flag.Func("fault", "arm a fault injection site: name[:after=N,every=N,limit=N,prob=P,seed=N,panic=1] (repeatable)",
		func(s string) error { faults = append(faults, s); return nil })
	flag.Parse()
	if *cpuprofile != "" {
		if err := startCPUProfile(*cpuprofile); err != nil {
			fatal(err)
		}
		defer stopProfile()
	}

	for _, spec := range faults {
		if err := faultsim.ArmSpec(spec); err != nil {
			fatal(err)
		}
	}
	// An injected panic (a -fault site with panic=1) must look like a
	// crash to scripts — non-zero exit — without a Go stack trace.
	defer func() {
		if r := recover(); r != nil {
			if ie, ok := r.(*faultsim.InjectedError); ok {
				fmt.Fprintln(os.Stderr, "fbplace: killed by injected fault:", ie)
				exit(3)
			}
			panic(r)
		}
	}()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var rec *fbplace.Recorder
	var traceSink *fbplace.JSONTraceSink
	var traceFile *os.File
	if *trace != "" || *stats {
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				fatal(err)
			}
			traceFile = f
			traceSink = fbplace.NewJSONTraceSink(f)
			rec = fbplace.NewRecorder(traceSink)
		} else {
			rec = fbplace.NewRecorder(nil)
		}
	}

	n, mbs, err := load(*in, *cells, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("instance: %d cells, %d nets, %d movebounds\n", n.NumCells(), n.NumNets(), len(mbs))

	if *dumpFlow > 0 {
		stats, flows, err := fbplace.FlowModel(n, mbs, *dumpFlow, *density)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("flow model on %dx%d grid: |V|=%d |E|=%d (%.1f E/V), solve %v\n",
			*dumpFlow, *dumpFlow, stats.NumNodes, stats.NumArcs,
			float64(stats.NumArcs)/float64(stats.NumNodes), stats.SolveTime)
		fmt.Printf("flow-carrying external edges: %d\n", len(flows))
		for _, f := range flows {
			fmt.Printf("  %-12s (%d,%d)%s -> (%d,%d)%s  area %.2f\n",
				f.Class, f.FromWindow[0], f.FromWindow[1], f.FromDir,
				f.ToWindow[0], f.ToWindow[1], f.ToDir, f.Amount)
		}
		return
	}

	start := time.Now()
	switch *mode {
	case "fbp", "recursive":
		m := fbplace.ModeFBP
		if *mode == "recursive" {
			m = fbplace.ModeRecursive
		}
		cfg := fbplace.Config{
			Mode: m, Movebounds: mbs, TargetDensity: *density,
			ClusterRatio: *cluster, Workers: *workers,
			SkipLegalization: *skipLegal, DetailPasses: *detail,
			Obs:        rec,
			Checkpoint: fbplace.Checkpoint{Dir: *ckptDir},
		}
		if *certifyF {
			cfg.Certify = fbplace.CertifyEveryLevel
		}
		var rep *fbplace.Report
		var err error
		if *resume {
			if *ckptDir == "" {
				fatal(fmt.Errorf("-resume requires -checkpoint"))
			}
			rep, err = fbplace.Resume(ctx, n, *ckptDir, cfg)
		} else {
			rep, err = fbplace.PlaceCtx(ctx, n, cfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("placed in %v (global %v, legalization %v, %d levels)\n",
			time.Since(start).Round(time.Millisecond),
			rep.GlobalTime.Round(time.Millisecond),
			rep.LegalTime.Round(time.Millisecond), rep.Levels)
		fmt.Printf("HPWL %.0f, violations %d, overlaps %d\n", rep.HPWL, rep.Violations, rep.Overlaps)
		for _, d := range rep.Degradations {
			fmt.Printf("degraded: %s fell back to %s (%s)\n", d.Stage, d.Fallback, d.Detail)
		}
	case "rql":
		sp := rec.StartSpan("rql.place")
		if _, err := rql.PlaceCtx(ctx, n, rql.Config{
			Movebounds: mbs, TargetDensity: *density,
		}); err != nil {
			fatal(err)
		}
		sp.End()
		if !*skipLegal {
			lsp := rec.StartSpan("legalize")
			if _, err := fbplace.Legalize(n, nil); err != nil {
				fatal(err)
			}
			lsp.End()
		}
		viol := 0
		if len(mbs) > 0 {
			if viol, err = fbplace.CountViolations(n, mbs); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("placed in %v\n", time.Since(start).Round(time.Millisecond))
		fmt.Printf("HPWL %.0f, violations %d, overlaps %d\n", n.HPWL(), viol, fbplace.CountOverlaps(n))
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
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
		fmt.Printf("wrote %s\n", *trace)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := chipio.Write(f, n, mbs); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if *dumpHex != "" {
		if err := writeHexPositions(*dumpHex, n); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *dumpHex)
	}
	if *svg != "" {
		f, err := os.Create(*svg)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := plot.SVG(f, n, mbs, plot.Options{Title: *mode}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svg)
	}
}

func load(path string, cells int, seed int64) (*fbplace.Netlist, []fbplace.Movebound, error) {
	if path == "" {
		inst, err := fbplace.Generate(fbplace.ChipSpec{Name: "cli", NumCells: cells, Seed: seed})
		if err != nil {
			return nil, nil, err
		}
		return inst.N, inst.Movebounds, nil
	}
	if strings.HasSuffix(path, ".aux") {
		// ISPD Bookshelf benchmark (no movebounds in that format).
		n, err := bookshelf.ReadAux(path)
		return n, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return chipio.Read(f)
}

// writeHexPositions dumps the placement as chipio.WriteHex lines.
func writeHexPositions(path string, n *fbplace.Netlist) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := chipio.WriteHex(f, n.X, n.Y); err != nil {
		// The write failure is the error worth reporting.
		_ = f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fbplace:", err)
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
			fmt.Fprintln(os.Stderr, "fbplace: cpuprofile:", err)
		}
	}
	return nil
}

// exit stops the CPU profile, then exits with code.
func exit(code int) {
	stopProfile()
	os.Exit(code)
}
