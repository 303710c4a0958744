package qp

import (
	"fbplace/internal/netlist"
	"fbplace/internal/sparse"
)

// Workspace holds the reusable scratch of the system assembly and its
// solves: epoch-stamped variable and net marks, the gathered incident-net
// list, flat pin buffers, matrix builders, right-hand-side and CG vectors,
// and the last assembled System. With a workspace,
// a steady-state local QP solve allocates O(block) memory in a handful of
// allocations instead of O(netlist) — the realization phase threads one
// workspace per worker.
//
// A workspace must not be shared by concurrent solves. Reuse across
// netlists is allowed; the stamp arrays grow to the largest netlist seen.
// Results are bit-identical to solving with a fresh workspace (or none):
// every buffer is fully rebuilt per call, and epoch stamps replace
// clearing.
type Workspace struct {
	// epoch distinguishes the current call's stamps from stale ones, so
	// the O(NumCells)/O(NumNets) arrays never need clearing per call.
	epoch uint32
	// varIdx[c] is the variable index of cell c when varEpoch[c] == epoch.
	varIdx   []int32
	varEpoch []uint32
	// netEpoch[ni] == epoch marks net ni as already gathered this call.
	netEpoch []uint32
	// netIDs lists the nets incident to the subset, ascending.
	netIDs []int32
	// starOf[k] is the star variable of netIDs[k], or -1.
	starOf []int32
	// pins is the flat pin buffer; pinOff[k]..pinOff[k+1] delimits the
	// pins of netIDs[k] (empty for nets with fewer than two pins).
	pins   []netPin
	pinOff []int32
	// System assembly buffers: by is used only by the B2B model, whose
	// axes need separate matrices; springX and springY are the assembled
	// right-hand sides. sys is the last assembled system.
	bx, by           *sparse.Builder
	springX, springY []float64
	sys              System
	// Solve buffers: the diagonals and right-hand sides with anchors and
	// regularization, the matrices that pair those diagonals with the
	// assembled springs, the solution vectors and the CG work vectors.
	diagX, diagY []float64
	rhsX, rhsY   []float64
	matX, matY   sparse.CSR
	x, y         []float64
	cg           sparse.CGWork
	// uses counts completed begin() calls; a second use of the same
	// workspace is reported as the obs counter "qp.wsReuse".
	uses int
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// begin sizes the stamp arrays for a netlist of the given dimensions and
// opens a new epoch.
func (ws *Workspace) begin(numCells, numNets int) {
	if len(ws.varIdx) < numCells {
		ws.varIdx = make([]int32, numCells)
		ws.varEpoch = make([]uint32, numCells)
	}
	if len(ws.netEpoch) < numNets {
		ws.netEpoch = make([]uint32, numNets)
	}
	ws.epoch++
	if ws.epoch == 0 {
		// Epoch counter wrapped: stale stamps could collide with the new
		// epoch, so clear them once and restart at 1.
		for i := range ws.varEpoch {
			ws.varEpoch[i] = 0
		}
		for i := range ws.netEpoch {
			ws.netEpoch[i] = 0
		}
		ws.epoch = 1
	}
	ws.uses++
}

// varOf returns the variable index of cell c in the last assembled
// system, or -1.
func (ws *Workspace) varOf(c netlist.CellID) int32 {
	if ws.varEpoch[c] == ws.epoch {
		return ws.varIdx[c]
	}
	return -1
}

// resetBuilder returns b reset to an empty n x n system, or a new builder
// when b is nil.
func resetBuilder(b *sparse.Builder, n int) *sparse.Builder {
	if b == nil {
		return sparse.NewBuilder(n)
	}
	b.Reset(n)
	return b
}

// growZeroed returns s with length n and every element zero, reusing the
// capacity when possible.
func growZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// grow returns s with length n and unspecified contents (callers overwrite
// every element), reusing the capacity when possible.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
