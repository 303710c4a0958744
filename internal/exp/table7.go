package exp

import (
	"fmt"
	"io"
	"time"

	"fbplace/internal/gen"
	"fbplace/internal/legalize"
	"fbplace/internal/metrics"
	"fbplace/internal/placer"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// T7Row is one ISPD-2006-style instance of Table VII: the Kraftwerk2-style
// baseline vs BonnPlace FBP with the contest scoring.
type T7Row struct {
	Chip string

	KW  metrics.Score
	FBP metrics.Score

	KWTime, FBPTime time.Duration
}

// Table7 runs the ISPD-2006-style comparison (paper Table VII): both
// placers on the eight generated mixed-size instances, scored with HPWL,
// density penalty and the truncated CPU factor. The CPU factor uses the
// Kraftwerk-style runtime as the reference, mirroring how the contest
// normalized against the submission median.
func Table7(scale float64) ([]T7Row, error) {
	var rows []T7Row
	for _, spec := range gen.ISPDChips(scale) {
		inst, err := gen.Chip(spec)
		if err != nil {
			return rows, err
		}
		target, err := gen.ISPDTargetDensity(spec.Name)
		if err != nil {
			return rows, err
		}

		// Kraftwerk2-style baseline.
		kwNet := inst.N.Clone()
		start := time.Now()
		if _, err := rql.PlaceCtx(harnessCtx(), kwNet, rql.Config{Style: rql.StyleKraftwerk, TargetDensity: target}); err != nil {
			return rows, fmt.Errorf("%s: kraftwerk: %w", spec.Name, err)
		}
		if _, err := legalize.Legalize(kwNet, region.Decompose(kwNet.Area, nil), legalize.Options{Ctx: harnessCtx()}); err != nil {
			return rows, fmt.Errorf("%s: kraftwerk legalize: %w", spec.Name, err)
		}
		kwTime := time.Since(start)

		// BonnPlace FBP in "standard mode" (paper: BestChoice ratio 2).
		fbpNet := inst.N.Clone()
		rep, err := runPlace(fbpNet, placer.Config{TargetDensity: target, ClusterRatio: 2, Obs: obsRec})
		if err != nil {
			return rows, fmt.Errorf("%s: FBP: %w", spec.Name, err)
		}
		fbpTime := rep.GlobalTime + rep.LegalTime

		row := T7Row{
			Chip:    spec.Name,
			KWTime:  kwTime,
			FBPTime: fbpTime,
			KW: metrics.Score{
				HPWL:    kwNet.HPWL(),
				Density: metrics.DensityPenalty(kwNet, target, 10),
				CPU:     0, // reference
			},
			FBP: metrics.Score{
				HPWL:    rep.HPWL,
				Density: metrics.DensityPenalty(fbpNet, target, 10),
				CPU:     metrics.CPUFactor(fbpTime, kwTime),
			},
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable7 renders Table VII.
func PrintTable7(w io.Writer, rows []T7Row) {
	pr := &printer{w: w}
	pr.printf("TABLE VII: ISPD-2006-style results (Kraftwerk2-style baseline vs BonnPlace FBP)\n")
	pr.printf("%-10s | %10s %6s %10s | %10s %6s %7s %10s %10s | %8s %8s\n",
		"chip", "KW H", "D%", "KW H+D", "FBP H", "D%", "CPU%", "H+D", "H+D+C", "ratio", "ratioC")
	var sumKW, sumFBP, sumKWC, sumFBPC float64
	for _, r := range rows {
		ratio := 100 * r.FBP.HD() / r.KW.HD()
		ratioC := 100 * r.FBP.HDC() / r.KW.HDC()
		pr.printf("%-10s | %10.0f %5.1f%% %10.0f | %10.0f %5.1f%% %6.1f%% %10.0f %10.0f | %7.1f%% %7.1f%%\n",
			r.Chip, r.KW.HPWL, 100*r.KW.Density, r.KW.HD(),
			r.FBP.HPWL, 100*r.FBP.Density, 100*r.FBP.CPU, r.FBP.HD(), r.FBP.HDC(),
			ratio, ratioC)
		sumKW += r.KW.HD()
		sumFBP += r.FBP.HD()
		sumKWC += r.KW.HDC()
		sumFBPC += r.FBP.HDC()
	}
	if sumKW > 0 {
		pr.printf("%-10s: FBP H+D = %.1f%%, H+D+C = %.1f%% of baseline\n",
			"TOTAL", 100*sumFBP/sumKW, 100*sumFBPC/sumKWC)
	}
}
