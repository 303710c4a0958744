package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/region"
)

// goldenChip is one generated instance of TestBestChoiceGolden.
type goldenChip struct {
	cells      int
	movebounds int // inclusive, every second one overlapping its predecessor
	ratio      float64
	want       uint64
}

// goldenChips pin BestChoice's output: the hashes were taken from the
// map-based implementation this package started from, so a faster
// clustering must reproduce it bit for bit.
var goldenChips = []goldenChip{
	{1000, 0, 2, 0x27951d1bd1ddf62f},
	{1000, 0, 5, 0x421cbeea0f1c0e7b},
	{1000, 2, 2, 0x9873022db17588fd},
	{1000, 2, 5, 0x254e6d5ee29cfd17},
	{5000, 0, 2, 0xee35493a18bb3476},
	{5000, 0, 5, 0x8b9d594aa72c1e87},
	{5000, 2, 2, 0xa24d36d2a208b60d},
	{5000, 2, 5, 0x6e5b39960d17837c},
	{20000, 0, 5, 0x1a3682d3558a8f79},
	{20000, 4, 2, 0xff74be85bf6dbb7b},
}

// clusteringHash hashes the flat-to-cluster map and the clustered netlist:
// every cell's geometry, flags and position bits, and every net's weight
// and pins.
func clusteringHash(cl *Clustering) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	for _, p := range cl.Parent {
		put(uint64(p))
	}
	c := cl.Clustered
	for i, cell := range c.Cells {
		putF(cell.Width)
		putF(cell.Height)
		if cell.Fixed {
			put(1)
		} else {
			put(0)
		}
		put(uint64(int64(cell.Movebound)))
		putF(c.X[i])
		putF(c.Y[i])
	}
	for _, net := range c.Nets {
		putF(net.Weight)
		put(uint64(len(net.Pins)))
		for _, p := range net.Pins {
			put(uint64(int64(p.Cell)))
			putF(p.Offset.X)
			putF(p.Offset.Y)
		}
	}
	return h.Sum64()
}

// goldenSpec is the generator spec of g, seeded per instance.
func goldenSpec(g goldenChip, seed int64) gen.ChipSpec {
	spec := gen.ChipSpec{Name: "golden", NumCells: g.cells, Seed: seed}
	for m := 0; m < g.movebounds; m++ {
		spec.Movebounds = append(spec.Movebounds, gen.MoveboundSpec{
			Kind:         region.Inclusive,
			CellFraction: 0.3 / float64(g.movebounds),
			Density:      0.7,
			NestedIn:     -1,
			Overlap:      m%2 == 1,
		})
	}
	return spec
}

// TestBestChoiceGolden checks that BestChoice's parent map and clustered
// netlist are bit-identical to the pinned hashes on generated chips of
// 1k, 5k and 20k cells, with and without movebounds, at ratios 2 and 5.
func TestBestChoiceGolden(t *testing.T) {
	for i, g := range goldenChips {
		name := fmt.Sprintf("cells=%d/mb=%d/ratio=%g", g.cells, g.movebounds, g.ratio)
		t.Run(name, func(t *testing.T) {
			if g.cells > 5000 && testing.Short() {
				t.Skip("large instance skipped in -short mode")
			}
			inst, err := gen.Chip(goldenSpec(g, int64(100+i)))
			if err != nil {
				t.Fatal(err)
			}
			got := clusteringHash(BestChoice(inst.N, Options{Ratio: g.ratio}))
			if got != g.want {
				t.Fatalf("clustering hash %#016x, want %#016x", got, g.want)
			}
		})
	}
}
