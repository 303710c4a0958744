package fbp

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"fbplace/internal/flow"
)

// TestMCFGoldenFBPGrid pins the global MinCostFlow solve of
// BenchmarkSolveFBPGrid's 16x16 and 24x24 models bit for bit: the pivot
// and degenerate counts, the bits of the total cost and an FNV-1a digest
// of every arc flow's bits. A kernel change that keeps these (same
// entering arcs, same leaving arcs, same arithmetic) leaves every
// placement bit-identical; one that moves any of them changes the pivot
// sequence.
func TestMCFGoldenFBPGrid(t *testing.T) {
	want := map[int]struct {
		pivots, degenerate int
		costBits, digest   uint64
	}{
		16: {18921, 15262, 0x40f15cf5eafead0e, 0x9969e08820e6233f},
		24: {40292, 34402, 0x40f120e41c98bd19, 0x1b473666aaf8ee2f},
	}
	base, decomp, blockages := fbpGridInstance(t)
	for _, k := range []int{16, 24} {
		t.Run(fmt.Sprintf("grid=%dx%d", k, k), func(t *testing.T) {
			wr, assign := fbpGridLevel(base, decomp, blockages, k)
			m := BuildModel(base, wr, assign)
			if err := m.Solve(); err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for id := 0; id < m.G.NumArcs(); id++ {
				bits := math.Float64bits(m.G.Flow(flow.ArcID(id)))
				for i := range buf {
					buf[i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
			got := want[k]
			got.pivots, got.degenerate = m.G.Pivots, m.G.Degenerate
			got.costBits, got.digest = math.Float64bits(m.G.Cost()), h.Sum64()
			if got != want[k] {
				t.Fatalf("pivots %d degenerate %d cost bits %#x flow digest %#x; want %d %d %#x %#x",
					got.pivots, got.degenerate, got.costBits, got.digest,
					want[k].pivots, want[k].degenerate, want[k].costBits, want[k].digest)
			}
		})
	}
}
