package transport

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchProblem(n, k int) *Problem {
	rng := rand.New(rand.NewSource(7))
	p := &Problem{Supply: make([]float64, n), Capacity: make([]float64, k), Arcs: make([][]Arc, n)}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = 0.5 + rng.Float64()
		total += p.Supply[i]
		for j := 0; j < k; j++ {
			p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: rng.Float64() * 10})
		}
	}
	for j := range p.Capacity {
		p.Capacity[j] = 1.05 * total / float64(k)
	}
	return p
}

// benchMoveboundProblem is a movebound-shaped coarse-level block: n cells
// piled around a few hot spots over a k-sink grid (8 columns), integer L1
// costs (tie-heavy), and four movebounds — the left, right, top and bottom
// halves of the grid — so every source is admissible to half the sinks.
func benchMoveboundProblem(n, k int) *Problem {
	rng := rand.New(rand.NewSource(48))
	const cols, pitch = 8, 10
	rows := (k + cols - 1) / cols
	p := &Problem{Supply: make([]float64, n), Capacity: make([]float64, k), Arcs: make([][]Arc, n)}
	hx := []int{12, 55, 30}
	hy := []int{8, 20, 40}
	total := 0.0
	for i := range p.Supply {
		p.Supply[i] = float64(1 + rng.Intn(3))
		total += p.Supply[i]
		h := rng.Intn(len(hx))
		sx, sy := hx[h]+rng.Intn(2*pitch+1)-pitch, hy[h]+rng.Intn(2*pitch+1)-pitch
		for j := 0; j < k; j++ {
			x, y := j%cols, j/cols
			var in bool
			switch i % 4 {
			case 0:
				in = x < cols/2
			case 1:
				in = x >= cols/2
			case 2:
				in = y < rows/2
			default:
				in = y >= rows/2
			}
			if in {
				d := abs(sx-x*pitch) + abs(sy-y*pitch)
				p.Arcs[i] = append(p.Arcs[i], Arc{Sink: j, Cost: float64(d)})
			}
		}
	}
	for j := range p.Capacity {
		p.Capacity[j] = 1.05 * total / float64(k)
	}
	return p
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func BenchmarkEngines(b *testing.B) {
	for _, sz := range []struct {
		n, k int
		mb   bool
	}{{5, 8, false}, {20, 30, false}, {60, 40, false}, {600, 48, true}} {
		p, shape := benchProblem(sz.n, sz.k), ""
		if sz.mb {
			p, shape = benchMoveboundProblem(sz.n, sz.k), "mb/"
		}
		b.Run(fmt.Sprintf("condensed/%sn=%d/k=%d", shape, sz.n, sz.k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
