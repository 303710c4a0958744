package qp

import "fbplace/internal/sparse"

// Workspace holds the reusable scratch of the system assembly, of slices
// and of their solves: the variable index of every cell, the pin buffer,
// matrix builders, the epoch-stamped slice index of every held variable,
// the slice's matrix, right-hand-side and CG vectors, and the last
// assembled System. With a workspace, a steady-state slice solve
// allocates O(block) memory in a handful of allocations — the realization
// phase threads one workspace per worker.
//
// A workspace must not be shared by concurrent solves. Reuse across
// netlists is allowed; the stamp arrays grow to the largest system seen.
// Results are bit-identical to solving with a fresh workspace (or none):
// every buffer is fully rebuilt per call, and epoch stamps replace
// clearing.
type Workspace struct {
	// varIdx[c] is the variable index of cell c in the assembled system,
	// or -1.
	varIdx []int32
	// pins holds the pins of the net being assembled.
	pins []netPin
	// System assembly buffers: by is used only by the B2B model, whose
	// axes need separate matrices; springX and springY are the assembled
	// right-hand sides. sys is the last assembled system.
	bx, by           *sparse.Builder
	springX, springY []float64
	sys              System
	// Slice buffers: sliceIdx[h] is the slice index of held variable h
	// when sliceEpoch[h] == epoch (epoch distinguishes the current slice's
	// stamps from stale ones, so the arrays never need clearing per
	// slice); held lists the slice's held variables in slice order; part,
	// partX and partY are its matrix and right-hand sides, slice its
	// system.
	epoch        uint32
	sliceIdx     []int32
	sliceEpoch   []uint32
	held         []int32
	part         sparse.CSR
	partX, partY []float64
	slice        System
	// Solve buffers: the diagonals and right-hand sides with anchors and
	// regularization, the matrices that pair those diagonals with the
	// assembled springs, the solution vectors and the CG work vectors.
	diagX, diagY []float64
	rhsX, rhsY   []float64
	matX, matY   sparse.CSR
	x, y         []float64
	cg           sparse.CGWork
	// uses counts assemblies and slices; a second use of the same
	// workspace is reported as the obs counter "qp.wsReuse".
	uses int
}

// NewWorkspace returns an empty workspace. Buffers are sized lazily on
// first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// beginSlice sizes the slice stamps for a held system of dim variables
// and opens a new epoch.
func (ws *Workspace) beginSlice(dim int) {
	if len(ws.sliceIdx) < dim {
		ws.sliceIdx = make([]int32, dim)
		ws.sliceEpoch = make([]uint32, dim)
		ws.epoch = 0
	}
	ws.epoch++
	if ws.epoch == 0 {
		// Epoch counter wrapped: stale stamps could collide with the new
		// epoch, so clear them once and restart at 1.
		clear(ws.sliceEpoch)
		ws.epoch = 1
	}
	ws.uses++
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
