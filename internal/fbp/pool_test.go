package fbp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/leakcheck"
	"fbplace/internal/obs"
	"fbplace/internal/region"
)

// poolRealizer is a realizer with just what runUnits reads: the context,
// the worker bound, a recorder (so busy time is counted) and the scratch
// slots.
func poolRealizer(ctx context.Context, workers int) *realizer {
	r := &realizer{cfg: Config{Ctx: ctx, Workers: workers}, rec: obs.New(nil)}
	r.scratch = make([]*workerScratch, r.workers(math.MaxInt))
	return r
}

// runUnits keeps its contracts at every worker count: a panic becomes a
// *UnitError, the first error in index order is returned, every other
// unit still runs exactly once, each worker keeps one scratch, busy time
// is counted, and no goroutine outlives the call.
func TestRunUnitsErrors(t *testing.T) {
	const n, panicAt, failAt = 13, 4, 9
	window := func(i int) int { return 100 + i }
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			r := poolRealizer(context.Background(), workers)
			var runs [n]atomic.Int32
			var mu sync.Mutex
			scratches := map[*workerScratch]bool{}
			err := r.runUnits(n, "realize", window, func(i int, sc *workerScratch) error {
				runs[i].Add(1)
				mu.Lock()
				scratches[sc] = true
				mu.Unlock()
				switch i {
				case panicAt:
					panic("boom")
				case failAt:
					return errors.New("unit failed")
				}
				return nil
			})
			var ue *UnitError
			if !errors.As(err, &ue) {
				t.Fatalf("error %v is not a *UnitError", err)
			}
			if ue.Window != window(panicAt) || ue.Phase != "realize" {
				t.Fatalf("error attributed to %s of window %d, want realize of window %d", ue.Phase, ue.Window, window(panicAt))
			}
			if !strings.Contains(ue.Error(), "panic: boom") || len(ue.Stack) == 0 {
				t.Fatalf("recovered panic lost its value or stack: %v", ue)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("unit %d ran %d times, want 1", i, got)
				}
			}
			if len(scratches) > workers || scratches[nil] {
				t.Fatalf("%d scratches over %d workers (nil among them: %v)", len(scratches), workers, scratches[nil])
			}
			if atomic.LoadInt64(&r.busyNS) <= 0 {
				t.Fatal("no busy time counted")
			}
		})
	}
}

// Once the context is canceled, every unit not yet started is skipped.
// Unit cancelAt waits for all lower units to finish and then cancels;
// later units block until the cancel, so at that moment the other workers
// hold at most workers-1 of them, and every unit above
// cancelAt+workers-1 must be skipped.
func TestRunUnitsCancel(t *testing.T) {
	const n, cancelAt = 13, 6
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			leakcheck.Check(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := poolRealizer(ctx, workers)
			var runs [n]atomic.Int32
			var lower sync.WaitGroup
			lower.Add(cancelAt)
			err := r.runUnits(n, "final", func(i int) int { return i }, func(i int, _ *workerScratch) error {
				runs[i].Add(1)
				switch {
				case i < cancelAt:
					lower.Done()
				case i == cancelAt:
					lower.Wait()
					cancel()
				default:
					<-ctx.Done()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			for i := range runs {
				got := runs[i].Load()
				switch {
				case i <= cancelAt && got != 1:
					t.Fatalf("unit %d ran %d times before the cancel, want 1", i, got)
				case i > cancelAt+workers-1 && got != 0:
					t.Fatalf("unit %d started after the cancel", i)
				case got > 1:
					t.Fatalf("unit %d ran %d times", i, got)
				}
			}
		})
	}
}

// After the waves and the final pass every movable cell is in exactly one
// window list, the window of its assigned region, and no cell is parked.
// applyStep empties and refills the lists of the step's windows, so a
// step built from a partial cell list would drop cells here.
func TestRealizeKeepsWindowMembership(t *testing.T) {
	mbs := []region.Movebound{{Name: "M", Kind: region.Inclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 7, Yhi: 7}}}}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := crowdedNetlist(17, 210)
			wr := build(t, mbs, 4, 4, 1.0, nil)
			m := BuildModel(n, wr, wr.Grid.AssignCells(n))
			if err := m.Solve(); err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Workers = workers
			r := newRealizer(m, cfg, nil)
			if err := r.realizeWaves(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.finalPass(); err != nil {
				t.Fatal(err)
			}
			listed := make([]int, n.NumCells())
			for w, cells := range r.cellsIn {
				for _, ci := range cells {
					listed[ci]++
					if got := r.cellRegion[ci].Window; int(got) != w {
						t.Fatalf("cell %d listed in window %d, assigned to window %d", ci, w, got)
					}
				}
			}
			for i := range n.Cells { // crowdedNetlist has no fixed cells
				if listed[i] != 1 {
					t.Fatalf("movable cell %d listed %d times, want 1", i, listed[i])
				}
				if r.parked[i] {
					t.Fatalf("cell %d still parked after the final pass", i)
				}
			}
			if r.waves == 0 {
				t.Fatal("no wave ran")
			}
		})
	}
}
