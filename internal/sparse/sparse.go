// Package sparse implements the sparse linear-algebra substrate of the
// quadratic placer: coordinate-format assembly of symmetric positive
// definite systems and a Jacobi-preconditioned conjugate-gradient solver.
//
// Quadratic netlength minimization (paper §III) reduces to one SPD system
// per coordinate axis; the matrices are graph Laplacians of the net model
// plus positive diagonal terms from fixed pins and anchors, so CG with a
// diagonal preconditioner converges quickly and needs no factorization.
package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
)

// cgFault forces each attempt of SolveCGPair to report non-convergence at
// entry, exercising the quadratic placer's retry-then-anchor fallback
// chain.
var cgFault = faultsim.Register("sparse.cg.noconverge",
	"a CG solve reports ErrNotConverged without iterating")

// Builder accumulates matrix entries in coordinate (triplet) form.
// Duplicate (row, col) entries are summed on Build, which matches the
// natural assembly of clique and star net models.
type Builder struct {
	n       int
	rows    []int32
	cols    []int32
	vals    []float64
	diagAdd []float64

	// Build scratch, kept so a reset builder assembles without
	// re-allocating: entry indices grouped by row, the row offsets into
	// order, and per column the output slot of its entry in the row being
	// assembled.
	order    []int32
	rowStart []int32
	mark     []int32
	long     rowSorter // reused by sortRow so sorting a long row does not allocate
	out      CSR       // Build's result, rebuilt in place
}

// NewBuilder returns a builder for an n x n matrix.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, diagAdd: make([]float64, n)}
}

// N returns the matrix dimension.
func (b *Builder) N() int { return b.n }

// Reset re-dimensions the builder to an n x n matrix and clears every
// accumulated entry while keeping the allocated capacity, so a builder can
// be reused across the many small systems of the realization-local QP
// without re-allocating. A reset builder produces bit-identical Build
// output to a fresh NewBuilder(n) fed the same entry sequence.
func (b *Builder) Reset(n int) {
	b.n = n
	b.rows = b.rows[:0]
	b.cols = b.cols[:0]
	b.vals = b.vals[:0]
	if cap(b.diagAdd) < n {
		b.diagAdd = make([]float64, n)
		return
	}
	b.diagAdd = b.diagAdd[:n]
	for i := range b.diagAdd {
		b.diagAdd[i] = 0
	}
}

// Add accumulates v into entry (i, j). For off-diagonal entries the caller
// is responsible for also adding the symmetric entry (j, i); AddSym does
// both plus the diagonal, which is the common pattern for spring terms.
func (b *Builder) Add(i, j int, v float64) {
	if i == j {
		b.diagAdd[i] += v
		return
	}
	b.rows = append(b.rows, int32(i))
	b.cols = append(b.cols, int32(j))
	b.vals = append(b.vals, v)
}

// AddSym adds a spring of weight w between variables i and j:
// +w on both diagonals, -w on both off-diagonals. This is the quadratic
// form w*(x_i - x_j)^2 differentiated.
func (b *Builder) AddSym(i, j int, w float64) {
	b.diagAdd[i] += w
	b.diagAdd[j] += w
	b.rows = append(b.rows, int32(i), int32(j))
	b.cols = append(b.cols, int32(j), int32(i))
	b.vals = append(b.vals, -w, -w)
}

// AddDiag adds w to the diagonal entry of variable i (a spring to a fixed
// location; the location itself contributes w*pos to the right-hand side).
func (b *Builder) AddDiag(i int, w float64) { b.diagAdd[i] += w }

// Build assembles the accumulated entries into a CSR matrix in time
// linear in the entries (plus per-row sorting): a counting sort groups the
// entries by row, keeping insertion order, a column marker sums the
// entries with equal coordinates in insertion order, and each row is then
// sorted by column. Explicit zeros are kept (they are rare and harmless).
// The matrix lives in the builder's buffers: it stays valid until the
// builder's next Build, which overwrites it.
func (b *Builder) Build() *CSR {
	n, nnz := b.n, len(b.rows)
	start := resize(b.rowStart, n+1)
	for i := range start {
		start[i] = 0
	}
	for _, r := range b.rows {
		start[r+1]++
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	// Scatter with start[r] as row r's cursor; afterwards start[r] holds
	// row r+1's offset, so shift the offsets back by one row.
	order := resize(b.order, nnz)
	for e, r := range b.rows {
		order[start[r]] = int32(e)
		start[r]++
	}
	copy(start[1:], start[:n])
	start[0] = 0
	mark := resize(b.mark, n)
	for i := range mark {
		mark[i] = -1
	}
	b.order, b.rowStart, b.mark = order, start, mark

	m := &b.out
	m.N = n
	m.Ptr = resize(m.Ptr, n+1)
	m.Ptr[0] = 0
	if cap(m.Col) < nnz {
		m.Col, m.Val = make([]int32, 0, nnz), make([]float64, 0, nnz)
	}
	m.Col, m.Val = m.Col[:0], m.Val[:0]
	m.Diag = append(m.Diag[:0], b.diagAdd...)
	for r := 0; r < n; r++ {
		first := int32(len(m.Col))
		for _, e := range order[start[r]:start[r+1]] {
			c := b.cols[e]
			if slot := mark[c]; slot >= first {
				m.Val[slot] += b.vals[e]
				continue
			}
			mark[c] = int32(len(m.Col))
			m.Col = append(m.Col, c)
			m.Val = append(m.Val, b.vals[e])
		}
		b.sortRow(m.Col[first:], m.Val[first:])
		m.Ptr[r+1] = int32(len(m.Col))
	}
	return m
}

// insertionMax is the longest row sorted by insertion sort; longer rows
// (star centres, big cliques) take sort.Sort's O(len log len).
const insertionMax = 32

// sortRow sorts one row's deduplicated entries by column.
func (b *Builder) sortRow(col []int32, val []float64) {
	if len(col) > insertionMax {
		b.long = rowSorter{col: col, val: val}
		sort.Sort(&b.long)
		return
	}
	for i := 1; i < len(col); i++ {
		c, v := col[i], val[i]
		j := i
		for ; j > 0 && col[j-1] > c; j-- {
			col[j], val[j] = col[j-1], val[j-1]
		}
		col[j], val[j] = c, v
	}
}

// rowSorter sorts a row's parallel column and value slices by column.
type rowSorter struct {
	col []int32
	val []float64
}

func (s *rowSorter) Len() int           { return len(s.col) }
func (s *rowSorter) Less(i, j int) bool { return s.col[i] < s.col[j] }
func (s *rowSorter) Swap(i, j int) {
	s.col[i], s.col[j] = s.col[j], s.col[i]
	s.val[i], s.val[j] = s.val[j], s.val[i]
}

// resize returns buf with length n, reallocating only when its capacity
// is too small; the contents are unspecified.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// CSR is a compressed-sparse-row matrix with the diagonal stored
// separately (every row of a placement Laplacian has a diagonal entry, and
// keeping it apart makes the Jacobi preconditioner free).
type CSR struct {
	N    int
	Ptr  []int32 // row pointers into Col/Val, length N+1
	Col  []int32
	Val  []float64
	Diag []float64
}

// MulVec computes dst = M*x. dst and x must have length N and must not
// alias.
func (m *CSR) MulVec(dst, x []float64) {
	for i := 0; i < m.N; i++ {
		s := m.Diag[i] * x[i]
		for p := m.Ptr[i]; p < m.Ptr[i+1]; p++ {
			s += m.Val[p] * x[m.Col[p]]
		}
		dst[i] = s
	}
}

// mulVec2 computes dx = M*px and dy = M*py in one traversal of M; each
// product takes exactly MulVec's operations in MulVec's order. No two of
// the four vectors may alias.
func (m *CSR) mulVec2(dx, px, dy, py []float64) {
	// Reslicing to the dimension lets the compiler drop bounds checks.
	n := m.N
	diag, ptr := m.Diag[:n], m.Ptr[:n+1]
	dx, px, dy, py = dx[:n], px[:n], dy[:n], py[:n]
	for i := range diag {
		d := diag[i]
		sx, sy := d*px[i], d*py[i]
		cols := m.Col[ptr[i]:ptr[i+1]]
		vals := m.Val[ptr[i]:ptr[i+1]]
		vals = vals[:len(cols)]
		for k, c := range cols {
			v := vals[k]
			sx += v * px[c]
			sy += v * py[c]
		}
		dx[i], dy[i] = sx, sy
	}
}

// ErrNotConverged is returned when CG exhausts its iteration budget before
// reaching the requested tolerance. The best iterate found is still
// written to x, so callers may choose to continue with it.
var ErrNotConverged = errors.New("sparse: CG did not converge")

// CGOptions controls the conjugate-gradient solve.
type CGOptions struct {
	// Tol is the relative residual target ||r|| <= Tol*||b||. Default 1e-6.
	Tol float64
	// MaxIter bounds the iterations. Default 10*N (placement Laplacians
	// typically converge in far fewer).
	MaxIter int
	// Obs, when non-nil, records counters "cg.solves" and "cg.iters" and
	// the gauge "cg.residual" (final relative residual) per solve.
	Obs *obs.Recorder
	// Ctx, when non-nil, is polled every few iterations; a canceled or
	// expired context aborts the solve with the context's error (which is
	// distinct from ErrNotConverged: cancellation must not trigger
	// convergence fallbacks).
	Ctx context.Context
}

// SolveCGPair solves the two axis systems of one quadratic placement,
// mx*x = rhsX and my*y = rhsY (mx and my may be the same matrix), in one
// lockstep CG loop on the calling goroutine (see runCG), with w's work
// vectors. With retry set, an axis whose solve does not converge is
// retried once from its iterate with four times the iteration budget; an
// axis error wrapping ErrNotConverged then means both attempts failed. It
// returns each axis's iterations over both attempts and its error.
//
// The outcome is that of solving x, then y, each retried in place: the
// sparse.cg.noconverge fault schedule is drawn in the order x, x-retry, y,
// y-retry before the first attempts run, and the obs records are emitted
// in that order once both axes returned. Retries after an organic failure
// (not an injected one) run afterwards, drawing their hits x first.
func SolveCGPair(w *CGWork, mx, my *CSR, x, y, rhsX, rhsY []float64, opt CGOptions, retry bool) (itx, ity int, errX, errY error) {
	opt = opt.withDefaults(mx.N)
	if err := precheck(mx, x, rhsX, opt); err != nil {
		return 0, 0, err, nil
	}
	if err := precheck(my, y, rhsY, opt); err != nil {
		return 0, 0, nil, err
	}
	axes := [2]axisRun{{m: mx, v: x, rhs: rhsX}, {m: my, v: y, rhs: rhsY}}
	for i := range axes {
		a := &axes[i]
		a.fault = cgFault.Check()
		if a.fault != nil && retry {
			a.retryFault = cgFault.Check()
		}
	}
	// An injected first attempt did no work, so its retry runs in place.
	for i := range axes {
		a := &axes[i]
		w.schedule(&a.first, a.m, a.v, a.rhs, opt.MaxIter, a.fault)
		if a.fault != nil && retry {
			w.schedule(&a.second, a.m, a.v, a.rhs, opt.retry().MaxIter, a.retryFault)
			a.retried = true
		}
	}
	w.run(opt)
	for i := range axes {
		a := &axes[i]
		if retry && !a.retried && errors.Is(a.first.err, ErrNotConverged) {
			w.schedule(&a.second, a.m, a.v, a.rhs, opt.retry().MaxIter, cgFault.Check())
			a.retried = true
		}
	}
	w.run(opt)
	for i := range axes {
		a := &axes[i]
		a.first.record(opt.Obs)
		if a.retried {
			a.second.record(opt.Obs)
		}
	}
	itx, errX = axes[0].result()
	ity, errY = axes[1].result()
	return itx, ity, errX, errY
}

// axisRun is one axis of SolveCGPair: its system, the fault hits drawn
// for it and its attempts.
type axisRun struct {
	m                 *CSR
	v, rhs            []float64
	fault, retryFault error
	first, second     cgAttempt
	retried           bool
}

// result returns the axis's iterations over both attempts and its final
// error.
func (a *axisRun) result() (int, error) {
	if a.retried {
		return a.first.iters + a.second.iters, a.second.err
	}
	return a.first.iters, a.first.err
}

// withDefaults fills the tolerance and the iteration budget for an n x n
// system.
func (opt CGOptions) withDefaults(n int) CGOptions {
	if opt.Tol == 0 {
		opt.Tol = 1e-6
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 10 * n
		if opt.MaxIter < 100 {
			opt.MaxIter = 100
		}
	}
	return opt
}

// retry returns the options of a retried solve: four times the budget.
func (opt CGOptions) retry() CGOptions {
	opt.MaxIter *= 4
	return opt
}

// precheck validates the dimensions and polls the context before a solve
// draws its fault hit.
func precheck(m *CSR, x, rhs []float64, opt CGOptions) error {
	if len(x) != m.N || len(rhs) != m.N {
		return fmt.Errorf("sparse: dimension mismatch: matrix %d, x %d, rhs %d", m.N, len(x), len(rhs))
	}
	if opt.Ctx != nil {
		return opt.Ctx.Err()
	}
	return nil
}

// cgAttempt is the outcome of one CG run. recorded marks an attempt that
// iterated (or found its start converged) and reports to obs.
type cgAttempt struct {
	iters    int
	relres   float64
	recorded bool
	err      error
}

// record emits the attempt's counters "cg.solves" and "cg.iters" and its
// gauge "cg.residual".
func (a *cgAttempt) record(rec *obs.Recorder) {
	if rec == nil || !a.recorded {
		return
	}
	rec.Count("cg.solves", 1)
	rec.Count("cg.iters", float64(a.iters))
	rec.Gauge("cg.residual", a.relres)
}

// CGWork holds the runs and work vectors of SolveCGPair, so a caller that
// solves many systems one after another allocates them once. The zero
// value is ready to use. A CGWork must not be shared by concurrent solves.
type CGWork struct {
	runs []cgRun
	vecs []float64
}

// cgRun is one CG attempt in the lockstep loop: its system, its iteration
// budget, where its outcome goes and, while it is live, its state.
type cgRun struct {
	m       *CSR
	x, rhs  []float64
	maxIter int
	out     *cgAttempt

	inv, r, z, p, ap           []float64
	rz, bnorm, target, lastRel float64
	live                       bool
}

// schedule adds an attempt whose fault hit was drawn as fault to the next
// run. An injected hit does not join it: it reports non-convergence
// without iterating, with the same contract as the organic case — the
// warm-start iterate stays in x and ErrNotConverged is reported (wrapping
// the injection record for attribution).
func (w *CGWork) schedule(out *cgAttempt, m *CSR, x, rhs []float64, maxIter int, fault error) {
	if fault != nil {
		*out = cgAttempt{err: fmt.Errorf("sparse: %w: %w", ErrNotConverged, fault)}
		return
	}
	w.runs = append(w.runs, cgRun{m: m, x: x, rhs: rhs, maxIter: maxIter, out: out})
}

// run solves the scheduled attempts in lockstep (see runCG), taking their
// work vectors from w, and clears the schedule.
func (w *CGWork) run(opt CGOptions) {
	total := 0
	for i := range w.runs {
		total += 5 * w.runs[i].m.N
	}
	if cap(w.vecs) < total {
		w.vecs = make([]float64, total)
	}
	buf := w.vecs[:total]
	next := func(n int) []float64 {
		v := buf[:n:n]
		buf = buf[n:]
		return v
	}
	for i := range w.runs {
		c := &w.runs[i]
		n := c.m.N
		c.inv, c.r, c.z, c.p, c.ap = next(n), next(n), next(n), next(n), next(n)
	}
	runCG(w.runs, opt)
	w.runs = w.runs[:0]
}

// runCG runs Jacobi-preconditioned CG on every run at once: round k does
// iteration k of each run still live, and two live runs on one matrix
// share a single traversal of it per round. Each run keeps its own step
// sizes, residual, stop test and iteration count, and does exactly the
// float operations of a solve of its system alone, in the same order, so
// its outcome does not depend on the other run.
func runCG(runs []cgRun, opt CGOptions) {
	for i := range runs {
		runs[i].start()
	}
	apply(runs, func(c *cgRun) (dst, src []float64) { return c.r, c.x })
	for i := range runs {
		if runs[i].live {
			runs[i].init(opt.Tol)
		}
	}
	for iter := 1; ; iter++ {
		live := 0
		for i := range runs {
			c := &runs[i]
			if !c.live {
				continue
			}
			if iter > c.maxIter {
				c.finish(c.maxIter, ErrNotConverged)
				continue
			}
			live++
		}
		if live == 0 {
			return
		}
		// Deadline/cancellation poll, cheap relative to a MulVec: every 64
		// iterations keeps the abort latency well under one outer
		// placement iteration even on large systems.
		if opt.Ctx != nil && iter&63 == 0 {
			if err := opt.Ctx.Err(); err != nil {
				for i := range runs {
					if runs[i].live {
						runs[i].finish(iter, err)
					}
				}
				return
			}
		}
		apply(runs, func(c *cgRun) (dst, src []float64) { return c.ap, c.p })
		for i := range runs {
			if runs[i].live {
				runs[i].step(iter)
			}
		}
	}
}

// apply computes dst = M*src for every live run, in one traversal when two
// live runs share their matrix.
func apply(runs []cgRun, vecs func(c *cgRun) (dst, src []float64)) {
	if len(runs) == 2 && runs[0].live && runs[1].live && runs[0].m == runs[1].m {
		dx, sx := vecs(&runs[0])
		dy, sy := vecs(&runs[1])
		runs[0].m.mulVec2(dx, sx, dy, sy)
		return
	}
	for i := range runs {
		if c := &runs[i]; c.live {
			dst, src := vecs(c)
			c.m.MulVec(dst, src)
		}
	}
}

// start builds the Jacobi preconditioner; a non-positive diagonal ends the
// run unrecorded.
func (c *cgRun) start() {
	for i, d := range c.m.Diag {
		if d <= 0 {
			*c.out = cgAttempt{err: fmt.Errorf("sparse: non-positive diagonal %g at row %d (matrix not SPD)", d, i)}
			return
		}
		c.inv[i] = 1 / d
	}
	c.live = true
}

// init turns r = M*x into the initial residual and search direction; a
// zero right-hand side or a converged warm start ends the run.
func (c *cgRun) init(tol float64) {
	r, z, p, x, rhs := c.r, c.z, c.p, c.x, c.rhs
	bnorm := 0.0
	rnorm0 := 0.0
	for i := range r {
		r[i] = rhs[i] - r[i]
		rnorm0 += r[i] * r[i]
		bnorm += rhs[i] * rhs[i]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		for i := range x {
			x[i] = 0
		}
		c.lastRel = 0
		c.finish(0, nil)
		return
	}
	c.bnorm = bnorm
	c.lastRel = math.Sqrt(rnorm0) / bnorm
	if math.Sqrt(rnorm0) <= tol*bnorm {
		c.finish(0, nil) // warm start already converged
		return
	}
	rz := 0.0
	for i := range r {
		z[i] = c.inv[i] * r[i]
		p[i] = z[i]
		rz += r[i] * z[i]
	}
	c.rz = rz
	c.target = tol * bnorm
}

// step completes iteration iter once ap holds M*p.
func (c *cgRun) step(iter int) {
	x := c.x // the other vectors are resliced to its length for bounds-check elimination
	r, z, p, ap, inv := c.r[:len(x)], c.z[:len(x)], c.p[:len(x)], c.ap[:len(x)], c.inv[:len(x)]
	pap := dot(p, ap)
	if pap <= 0 {
		// Numerical breakdown; the current iterate is the best we have.
		c.finish(iter, fmt.Errorf("sparse: CG breakdown, p^T A p = %g: %w", pap, ErrNotConverged))
		return
	}
	alpha := c.rz / pap
	rnorm := 0.0
	for i := range x {
		x[i] += alpha * p[i]
		r[i] -= alpha * ap[i]
		rnorm += r[i] * r[i]
	}
	c.lastRel = math.Sqrt(rnorm) / c.bnorm
	if math.Sqrt(rnorm) <= c.target {
		c.finish(iter, nil)
		return
	}
	rzNew := 0.0
	for i := range x {
		z[i] = inv[i] * r[i]
		rzNew += r[i] * z[i]
	}
	beta := rzNew / c.rz
	c.rz = rzNew
	for i := range x {
		p[i] = z[i] + beta*p[i]
	}
}

// finish ends the run after iters iterations with its last relative
// residual and err.
func (c *cgRun) finish(iters int, err error) {
	*c.out = cgAttempt{iters: iters, relres: c.lastRel, recorded: true, err: err}
	c.live = false
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
