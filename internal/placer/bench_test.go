package placer

import (
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/legalize"
	"fbplace/internal/region"
)

// BenchmarkLegalize times legalization alone on two 10k-cell chips with
// genchip's default 2 macros: a flat one (genchip -cells 10000 -seed 4),
// which legalizes as the one-region case of the §III partition, and one
// with 4 overlapping movebounds (genchip -cells 10000 -movebounds 4
// -overlap -seed 1). Global placement runs once, outside the timer; each
// iteration legalizes a fresh clone of its result.
func BenchmarkLegalize(b *testing.B) {
	for _, c := range []struct {
		name       string
		seed       int64
		movebounds int
	}{
		{"flat", 4, 0},
		{"movebounds", 1, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			spec := gen.ChipSpec{Name: "custom", NumCells: 10000, Seed: c.seed, NumMacros: 2, Utilization: 0.55}
			for m := 0; m < c.movebounds; m++ {
				spec.Movebounds = append(spec.Movebounds, gen.MoveboundSpec{
					Kind: region.Inclusive, CellFraction: 0.3 / float64(c.movebounds),
					Density: 0.7, NestedIn: -1, Overlap: m%2 == 1,
				})
			}
			inst, err := gen.Chip(spec)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := Place(inst.N, Config{Movebounds: inst.Movebounds, SkipLegalization: true}); err != nil {
				b.Fatal(err)
			}
			mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
			if err != nil {
				b.Fatal(err)
			}
			d := region.Decompose(inst.N.Area, mbs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := inst.N.Clone()
				b.StartTimer()
				if _, err := legalize.Legalize(n, d, legalize.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
