package serve

import (
	"math"
	"runtime/metrics"

	"fbplace/internal/gen"
	"fbplace/internal/netlist"
	"fbplace/internal/placer"
)

// Estimate is a job's predicted resource footprint, priced at admission
// from the instance size — before the job consumes anything. The
// scheduler uses it two ways: to refuse jobs that could never fit the
// process memory budget, and to gate job starts so the sum of running
// footprints stays under that budget.
type Estimate struct {
	// Cells and Pins are the instance size, Levels the planned refinement
	// level count (placer.PlannedLevels).
	Cells, Pins, Levels int
	// PeakBytes is the predicted peak process-heap contribution.
	PeakBytes int64
}

// Calibration, measured on gen.Chip instances of the LoadMix ladder
// (plain and with LoadMix's inclusive movebound, the larger of the two
// shown), one placement worker, linux/amd64, go1.24. The heaps are the
// largest runtime.MemStats.HeapAlloc sampled at the placer's span
// boundaries; "live" ran at GOGC=10, so it carries almost no garbage,
// "default" at GOGC=100, the heap the process actually holds:
//
//	cells   pins    levels  live heap  default heap  PeakBytes
//	300     1081    2       1.4 MB     1.8 MB        5.1 MB
//	1200    4017    3       2.7 MB     3.3 MB        7.7 MB
//	5000    15925   4       8.1 MB     10.8 MB       18.5 MB
//	20000   62667   5       28.3 MB    47.0 MB       61.2 MB
//
// Peak memory is modeled as base + per-cell + per-pin. The model sits at
// least 1.3x above the default-GOGC heap on every rung and 2-4x above the
// live heap, so the admission price is the conservative envelope of the
// allocation spike between GC cycles, not the average.
//
// The heap target is live x (1 + GOGC/100), so above GOGC=100 the model is
// scaled by (100+GOGC)/200; at or below it the GOGC=100 price stands.
// GOGC=off has no heap target and is not priced. GOMEMLIMIT is not read.
// TestPeakBytesCoversMeasuredHeap keeps the model above the heap at the
// default GOGC and at GOGC=400.
const (
	estBaseBytes    = 4 << 20
	estBytesPerCell = 2048
	estBytesPerPin  = 256
)

// estimateJob prices one job from its loaded instance and compiled config
// for a process running at GC percent gogc (see gcPercent).
func estimateJob(n *netlist.Netlist, cfg placer.Config, gogc int) Estimate {
	cells := len(n.X)
	pins := 0
	for i := range n.Nets {
		pins += len(n.Nets[i].Pins)
	}
	return Estimate{
		Cells:     cells,
		Pins:      pins,
		Levels:    placer.PlannedLevels(n, cfg),
		PeakBytes: peakBytes(cells, pins, gogc),
	}
}

// chipFloor prices a synthetic chip from its spec alone, before it is
// generated: the instance has NumCells+NumMacros cells and at least
// PadCount pins, so the floor never exceeds the instance's own estimate.
// Levels stays 0; planning them needs the instance.
func chipFloor(c *gen.ChipSpec, gogc int) Estimate {
	cells := min(c.NumCells, maxPriced) + min(c.NumMacros, maxPriced)
	return Estimate{Cells: cells, Pins: c.PadCount, PeakBytes: peakBytes(cells, c.PadCount, gogc)}
}

// maxPriced bounds the cell and pin counts peakBytes prices exactly; past
// it the price saturates instead of overflowing int64.
const maxPriced = 1 << 29

// peakBytes is the cost model: base + per-cell + per-pin, scaled by
// (100+gogc)/200 above GOGC=100.
func peakBytes(cells, pins, gogc int) int64 {
	if cells > maxPriced || pins > maxPriced {
		return math.MaxInt64
	}
	peak := estBaseBytes + estBytesPerCell*int64(cells) + estBytesPerPin*int64(pins)
	if gogc > 100 {
		peak = peak * int64(100+gogc) / 200
	}
	return peak
}

// gcPercent is the process's GC percent: the GOGC environment variable or
// the last debug.SetGCPercent, 100 by default, negative when the collector
// is off. It reads runtime/metrics, which, unlike debug.SetGCPercent,
// changes nothing.
func gcPercent() int {
	s := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(s)
	return int(int64(s[0].Value.Uint64()))
}
