package netlist

import (
	"math/rand"
	"sync"
	"testing"

	"fbplace/internal/geom"
)

func randomNetlist(numCells, numNets int, seed int64) *Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := New(geom.Rect{Xhi: 10, Yhi: 10}, 1)
	for i := 0; i < numCells; i++ {
		n.AddCell(Cell{Width: 1, Height: 1, Movebound: NoMovebound})
	}
	for e := 0; e < numNets; e++ {
		deg := 1 + rng.Intn(6)
		pins := make([]Pin, 0, deg)
		for k := 0; k < deg; k++ {
			if rng.Intn(8) == 0 {
				pins = append(pins, Pin{Cell: -1, Offset: geom.Point{X: rng.Float64(), Y: rng.Float64()}})
				continue
			}
			// Duplicate pins on one cell are common (multi-pin macros) and
			// must be deduplicated by the index.
			pins = append(pins, Pin{Cell: CellID(rng.Intn(numCells))})
		}
		n.AddNet(Net{Pins: pins})
	}
	return n
}

// TestNetIndexMatchesBruteForce checks the CSR index against a direct scan:
// per cell, the incident nets must come out ascending, deduplicated, and
// complete.
func TestNetIndexMatchesBruteForce(t *testing.T) {
	n := randomNetlist(200, 600, 5)
	ix := n.NetIndex()
	want := make([][]NetID, n.NumCells())
	for ni := range n.Nets {
		seen := map[CellID]bool{}
		for _, p := range n.Nets[ni].Pins {
			if p.IsPad() || seen[p.Cell] {
				continue
			}
			seen[p.Cell] = true
			want[p.Cell] = append(want[p.Cell], NetID(ni))
		}
	}
	for c := 0; c < n.NumCells(); c++ {
		got := ix.Nets(CellID(c))
		if len(got) != len(want[c]) {
			t.Fatalf("cell %d: %d incident nets, want %d", c, len(got), len(want[c]))
		}
		for i := range got {
			if got[i] != want[c][i] {
				t.Fatalf("cell %d entry %d: net %d, want %d (must be ascending, deduplicated)", c, i, got[i], want[c][i])
			}
		}
	}
}

// TestNetIndexCachedAndInvalidated checks the build-once contract and the
// invalidation on structural mutation.
func TestNetIndexCachedAndInvalidated(t *testing.T) {
	n := randomNetlist(50, 100, 9)
	ix1 := n.NetIndex()
	if n.NetIndex() != ix1 {
		t.Fatal("second NetIndex call rebuilt the cached index")
	}
	// Position updates must not invalidate: the index is connectivity-only.
	n.SetPos(3, geom.Point{X: 1, Y: 1})
	if n.NetIndex() != ix1 {
		t.Fatal("SetPos invalidated the incidence index")
	}
	c := n.AddCell(Cell{Width: 1, Height: 1, Movebound: NoMovebound})
	ix2 := n.NetIndex()
	if ix2 == ix1 {
		t.Fatal("AddCell did not invalidate the incidence index")
	}
	if got := ix2.Nets(c); len(got) != 0 {
		t.Fatalf("new cell has %d incident nets, want 0", len(got))
	}
	n.AddNet(Net{Pins: []Pin{{Cell: c}, {Cell: 0}}})
	ix3 := n.NetIndex()
	if ix3 == ix2 {
		t.Fatal("AddNet did not invalidate the incidence index")
	}
	if got := ix3.Nets(c); len(got) != 1 || got[len(got)-1] != NetID(n.NumNets()-1) {
		t.Fatalf("new cell incident nets = %v, want the appended net", got)
	}
}

// TestNetIndexCloneIndependent checks that a clone does not share the
// cached index and builds its own.
func TestNetIndexCloneIndependent(t *testing.T) {
	n := randomNetlist(40, 80, 3)
	ix := n.NetIndex()
	cp := n.Clone()
	cpIx := cp.NetIndex()
	if cpIx == ix {
		t.Fatal("clone shares the original's incidence index")
	}
	for c := 0; c < n.NumCells(); c++ {
		a, b := ix.Nets(CellID(c)), cpIx.Nets(CellID(c))
		if len(a) != len(b) {
			t.Fatalf("cell %d: clone index diverged", c)
		}
	}
}

// TestNetIndexConcurrentFirstBuild races many readers over the lazy first
// build (run with -race to make this meaningful: realization workers all
// ask for the index at the first wave).
func TestNetIndexConcurrentFirstBuild(t *testing.T) {
	n := randomNetlist(300, 900, 17)
	var wg sync.WaitGroup
	got := make([]*CellNetIndex, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = n.NetIndex()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent NetIndex calls returned different indexes")
		}
	}
}
