package cluster

import (
	"testing"

	"fbplace/internal/gen"
)

// sink keeps the benchmarked clustering alive.
var sink *Clustering

// BenchmarkBestChoice clusters the 5000-cell generated chip at the paper's
// Table II ratio 5: the serial prefix of a clustered placement.
func BenchmarkBestChoice(b *testing.B) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "cli", NumCells: 5000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = BestChoice(inst.N, Options{Ratio: 5})
	}
}
