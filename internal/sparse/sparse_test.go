package sparse

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(3)
	b.Add(0, 1, 2)
	b.Add(0, 1, 3)
	b.Add(1, 0, 5)
	b.AddDiag(0, 7)
	b.Add(2, 2, 1) // diagonal via Add
	m := b.Build()
	if m.Diag[0] != 7 || m.Diag[2] != 1 {
		t.Fatalf("diag = %v", m.Diag)
	}
	// Row 0 has one stored entry with value 5.
	if m.Ptr[1]-m.Ptr[0] != 1 || m.Val[m.Ptr[0]] != 5 || m.Col[m.Ptr[0]] != 1 {
		t.Fatalf("row 0 wrong: ptr=%v col=%v val=%v", m.Ptr, m.Col, m.Val)
	}
	if m.Ptr[2]-m.Ptr[1] != 1 || m.Val[m.Ptr[1]] != 5 {
		t.Fatalf("row 1 wrong")
	}
}

func TestAddSymBuildsLaplacian(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 1, 4)
	b.AddDiag(0, 1) // anchor to make it SPD
	m := b.Build()
	// M = [[5,-4],[-4,4]]
	x := []float64{1, 2}
	y := make([]float64, 2)
	m.MulVec(y, x)
	if y[0] != 5-8 || y[1] != -4+8 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulVecKnown(t *testing.T) {
	b := NewBuilder(3)
	b.AddDiag(0, 2)
	b.AddDiag(1, 3)
	b.AddDiag(2, 4)
	b.Add(0, 2, -1)
	b.Add(2, 0, -1)
	m := b.Build()
	x := []float64{1, 1, 1}
	y := make([]float64, 3)
	m.MulVec(y, x)
	want := []float64{1, 3, 3}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
}

// solveCG solves m*x = rhs as one axis of SolveCGPair:
// defaults, precheck, one attempt with its fault draw, run as the only
// live axis of the lockstep loop, and its obs record.
func solveCG(m *CSR, x, rhs []float64, opt CGOptions) (int, error) {
	opt = opt.withDefaults(m.N)
	if err := precheck(m, x, rhs, opt); err != nil {
		return 0, err
	}
	var a cgAttempt
	w := new(CGWork)
	w.schedule(&a, m, x, rhs, opt.MaxIter, cgFault.Check())
	w.run(opt)
	a.record(opt.Obs)
	return a.iters, a.err
}

func TestSolveCGIdentity(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 4; i++ {
		b.AddDiag(i, 1)
	}
	m := b.Build()
	rhs := []float64{1, -2, 3, 0.5}
	x := make([]float64, 4)
	if _, err := solveCG(m, x, rhs, CGOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := range rhs {
		if math.Abs(x[i]-rhs[i]) > 1e-9 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveCGZeroRHS(t *testing.T) {
	b := NewBuilder(2)
	b.AddSym(0, 1, 1)
	b.AddDiag(0, 1)
	m := b.Build()
	x := []float64{5, -3}
	it, err := solveCG(m, x, []float64{0, 0}, CGOptions{})
	if err != nil || it != 0 {
		t.Fatalf("it=%d err=%v", it, err)
	}
	if x[0] != 0 || x[1] != 0 {
		t.Fatalf("x = %v, want zeros", x)
	}
}

// Build a random SPD system (Laplacian of a random connected graph plus
// random positive diagonal), solve, and verify the residual.
func TestSolveCGRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(60)
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			b.AddSym(i, j, 0.1+rng.Float64())
		}
		for e := 0; e < 2*n; e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				b.AddSym(i, j, 0.1+rng.Float64())
			}
		}
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 || i == 0 {
				b.AddDiag(i, 0.5+rng.Float64())
			}
		}
		m := b.Build()
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64() * 10
		}
		rhs := make([]float64, n)
		m.MulVec(rhs, want)
		x := make([]float64, n)
		if _, err := solveCG(m, x, rhs, CGOptions{Tol: 1e-10}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := make([]float64, n)
		m.MulVec(res, x)
		for i := range res {
			if math.Abs(res[i]-rhs[i]) > 1e-6*(1+math.Abs(rhs[i])) {
				t.Fatalf("trial %d: residual %g at %d", trial, res[i]-rhs[i], i)
			}
		}
	}
}

func TestSolveCGWarmStart(t *testing.T) {
	b := NewBuilder(3)
	b.AddSym(0, 1, 1)
	b.AddSym(1, 2, 1)
	b.AddDiag(0, 2)
	m := b.Build()
	rhs := []float64{2, 0, 1}
	cold := make([]float64, 3)
	it1, err := solveCG(m, cold, rhs, CGOptions{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	// Warm start from the exact solution must converge immediately-ish.
	warm := append([]float64(nil), cold...)
	it2, err := solveCG(m, warm, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if it2 > it1 {
		t.Fatalf("warm start took %d iters, cold %d", it2, it1)
	}
}

func TestSolveCGRejectsNonPositiveDiag(t *testing.T) {
	b := NewBuilder(2)
	b.AddDiag(0, 1)
	// Row 1 diagonal left at 0.
	m := b.Build()
	x := make([]float64, 2)
	if _, err := solveCG(m, x, []float64{1, 1}, CGOptions{}); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
}

func TestSolveCGDimensionMismatch(t *testing.T) {
	b := NewBuilder(2)
	b.AddDiag(0, 1)
	b.AddDiag(1, 1)
	m := b.Build()
	if _, err := solveCG(m, make([]float64, 3), []float64{1, 1}, CGOptions{}); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestSolveCGMaxIter(t *testing.T) {
	// A chain Laplacian with a tiny anchor is ill-conditioned; 1 iteration
	// will not reach 1e-14.
	n := 50
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddSym(i-1, i, 1)
	}
	b.AddDiag(0, 1e-6)
	m := b.Build()
	rhs := make([]float64, n)
	rhs[n-1] = 1
	x := make([]float64, n)
	_, err := solveCG(m, x, rhs, CGOptions{Tol: 1e-14, MaxIter: 1})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
}

// Property: for random small SPD systems, CG's solution matches dense
// Gaussian elimination.
func TestSolveCGMatchesDense(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		b := NewBuilder(n)
		dense := make([][]float64, n)
		for i := range dense {
			dense[i] = make([]float64, n)
		}
		for i := 1; i < n; i++ {
			j := rng.Intn(i)
			w := 0.5 + rng.Float64()
			b.AddSym(i, j, w)
			dense[i][i] += w
			dense[j][j] += w
			dense[i][j] -= w
			dense[j][i] -= w
		}
		for i := 0; i < n; i++ {
			w := 0.5 + rng.Float64()
			b.AddDiag(i, w)
			dense[i][i] += w
		}
		m := b.Build()
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		if _, err := solveCG(m, x, rhs, CGOptions{Tol: 1e-12}); err != nil {
			return false
		}
		ref := gaussSolve(dense, append([]float64(nil), rhs...))
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-6*(1+math.Abs(ref[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// gaussSolve solves a dense system with partial pivoting (test reference).
func gaussSolve(a [][]float64, b []float64) []float64 {
	n := len(b)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		a[col], a[piv] = a[piv], a[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= a[r][c] * x[c]
		}
		x[r] = s / a[r][r]
	}
	return x
}

func BenchmarkMulVec(b *testing.B) {
	n := 10000
	bl := NewBuilder(n)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i < n; i++ {
		bl.AddSym(i, rng.Intn(i), 1)
	}
	for i := 0; i < n; i++ {
		bl.AddDiag(i, 1)
	}
	m := bl.Build()
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(y, x)
	}
}

// TestBuilderResetBitIdentical checks the reuse contract of Reset: a reset
// builder fed the same entry sequence must produce a CSR bit-identical to a
// fresh builder's, including after shrinking and regrowing the dimension.
func TestBuilderResetBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feed := func(b *Builder, n int, seed int64) {
		r := rand.New(rand.NewSource(seed))
		for k := 0; k < 5*n; k++ {
			i, j := r.Intn(n), r.Intn(n)
			switch {
			case i == j:
				b.AddDiag(i, r.Float64())
			case k%3 == 0:
				b.AddSym(i, j, r.Float64())
			default:
				b.Add(i, j, r.Float64())
			}
		}
	}
	same := func(a, b *CSR) bool {
		if a.N != b.N || len(a.Val) != len(b.Val) {
			return false
		}
		for i := range a.Ptr {
			if a.Ptr[i] != b.Ptr[i] {
				return false
			}
		}
		for i := range a.Val {
			if a.Col[i] != b.Col[i] || a.Val[i] != b.Val[i] {
				return false
			}
		}
		for i := range a.Diag {
			if a.Diag[i] != b.Diag[i] {
				return false
			}
		}
		return true
	}
	reused := NewBuilder(0)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		seed := rng.Int63()
		reused.Reset(n)
		fresh := NewBuilder(n)
		feed(reused, n, seed)
		feed(fresh, n, seed)
		if reused.N() != n {
			t.Fatalf("trial %d: N() = %d after Reset(%d)", trial, reused.N(), n)
		}
		if !same(reused.Build(), fresh.Build()) {
			t.Fatalf("trial %d (n=%d): reset builder diverged from fresh builder", trial, n)
		}
	}
}

// feedNets adds a placement-shaped system to b (dimension n >= 8): springs
// of small clique nets with repeated pairs (duplicate entries), a few big
// cliques and star nets whose rows exceed the insertion-sort length, and
// fixed-pin diagonal terms.
func feedNets(b *Builder, rng *rand.Rand, n int) {
	pins := make([]int, 0, 64)
	clique := func(deg int) {
		pins = pins[:0]
		for len(pins) < deg {
			pins = append(pins, rng.Intn(n))
		}
		w := 1 / float64(deg-1)
		for a := range pins {
			for c := a + 1; c < len(pins); c++ {
				if pins[a] != pins[c] {
					b.AddSym(pins[a], pins[c], w*(0.5+rng.Float64()))
				}
			}
		}
	}
	for net := 0; net < 2*n; net++ {
		clique(2 + rng.Intn(4))
	}
	for net := 0; net < 3; net++ {
		clique(40 + rng.Intn(20))
		centre := rng.Intn(n) // star net: one variable wired to many pins
		for deg := 50 + rng.Intn(100); deg > 0; deg-- {
			if p := rng.Intn(n); p != centre {
				b.AddSym(centre, p, 0.1+rng.Float64())
			}
		}
	}
	for i := 0; i < n; i++ {
		b.AddDiag(i, rng.Float64())
		if rng.Intn(7) == 0 {
			b.Add(i, (i+1)%n, rng.Float64()) // unsymmetric one-off entry
		}
	}
}

// referenceBuild is the sort-based assembly Build replaced: all entries
// sorted by (row, col), then equal coordinates summed in sorted order.
func referenceBuild(b *Builder) *CSR {
	idx := make([]int, len(b.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool {
		ip, iq := idx[p], idx[q]
		if b.rows[ip] != b.rows[iq] {
			return b.rows[ip] < b.rows[iq]
		}
		return b.cols[ip] < b.cols[iq]
	})
	m := &CSR{N: b.n, Ptr: make([]int32, b.n+1), Diag: append([]float64(nil), b.diagAdd...)}
	lastR, lastC := int32(-1), int32(-1)
	for _, p := range idx {
		r, c := b.rows[p], b.cols[p]
		if r == lastR && c == lastC {
			m.Val[len(m.Val)-1] += b.vals[p]
			continue
		}
		m.Col = append(m.Col, c)
		m.Val = append(m.Val, b.vals[p])
		m.Ptr[r+1]++
		lastR, lastC = r, c
	}
	for i := 0; i < b.n; i++ {
		m.Ptr[i+1] += m.Ptr[i]
	}
	return m
}

// TestBuildMatchesSortReference checks the linear-time assembly against
// the sort-based one on placement-shaped systems, reusing one builder
// across dimensions: identical structure and diagonal, and values equal
// up to the summation order of duplicates.
func TestBuildMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(0)
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(400)
		b.Reset(n)
		feedNets(b, rng, n)
		got, want := b.Build(), referenceBuild(b)
		if got.N != want.N || len(got.Col) != len(want.Col) || len(got.Val) != len(want.Val) {
			t.Fatalf("trial %d (n=%d): %d entries, want %d", trial, n, len(got.Col), len(want.Col))
		}
		for i := range want.Ptr {
			if got.Ptr[i] != want.Ptr[i] {
				t.Fatalf("trial %d: Ptr[%d] = %d, want %d", trial, i, got.Ptr[i], want.Ptr[i])
			}
		}
		for p := range want.Col {
			if got.Col[p] != want.Col[p] {
				t.Fatalf("trial %d: Col[%d] = %d, want %d", trial, p, got.Col[p], want.Col[p])
			}
			if d := math.Abs(got.Val[p] - want.Val[p]); d > 1e-12*math.Max(1, math.Abs(want.Val[p])) {
				t.Fatalf("trial %d: Val[%d] = %v, want %v", trial, p, got.Val[p], want.Val[p])
			}
		}
		for i := range want.Diag {
			if got.Diag[i] != want.Diag[i] {
				t.Fatalf("trial %d: Diag[%d] = %v, want %v", trial, i, got.Diag[i], want.Diag[i])
			}
		}
	}
}

// built keeps BenchmarkBuild's result live.
var built *CSR

// BenchmarkBuild assembles one placement-shaped system of dimension 2000
// (about 48k entries, with duplicates and rows past the insertion-sort
// length) per iteration.
func BenchmarkBuild(b *testing.B) {
	const n = 2000
	bl := NewBuilder(n)
	feedNets(bl, rand.New(rand.NewSource(3)), n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		built = bl.Build()
	}
}

// TestSolveCGPairLockstepMatchesSingle checks the lockstep loop against
// one-axis solves of the same systems: the iterates bit for bit, the
// iteration counts and the errors, on one shared matrix (one traversal
// per round serves both axes) and on two matrices. The cases are axes
// that stop at different iterations, an axis with a zero right-hand side,
// and a budget that only one axis exhausts.
func TestSolveCGPairLockstepMatchesSingle(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(5))
	symmetric := func() *CSR {
		// A spring Laplacian plus a positive diagonal: SPD.
		b := NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddSym(i, rng.Intn(i), 0.1+rng.Float64())
		}
		for e := 0; e < 2*n; e++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				b.AddSym(i, j, 0.1+rng.Float64())
			}
		}
		for i := 0; i < n; i++ {
			b.AddDiag(i, 0.01+0.1*rng.Float64())
		}
		return b.Build() // each builder is used once, so the matrix stays valid
	}
	vec := func(scale float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	smooth := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = 1
		}
		return v
	}
	mA, mB := symmetric(), symmetric()
	// single solves one axis alone from a copy of the start.
	single := func(m *CSR, start, rhs []float64, opt CGOptions) ([]float64, int, error) {
		x := append([]float64(nil), start...)
		it, err := solveCG(m, x, rhs, opt)
		return x, it, err
	}
	x0, y0 := vec(1), vec(1)
	iters := func(start, rhs []float64) int {
		_, it, err := single(mA, start, rhs, CGOptions{Tol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	rhsX, rhsY := smooth(), vec(10)
	itA, itB := iters(x0, rhsX), iters(y0, rhsY)
	t.Logf("one-axis iterations: %d and %d", itA, itB)
	if itA == itB {
		t.Fatalf("test setup: both right-hand sides take %d iterations", itA)
	}
	cases := []struct {
		name       string
		rhsX, rhsY []float64
		opt        CGOptions
		wantErr    [2]bool
	}{
		{"different-stops", rhsX, rhsY, CGOptions{Tol: 1e-10}, [2]bool{}},
		{"zero-rhs", make([]float64, n), rhsY, CGOptions{Tol: 1e-10}, [2]bool{}},
		{"one-at-maxiter", rhsX, rhsY, CGOptions{Tol: 1e-10, MaxIter: (itA + itB) / 2}, [2]bool{itA > itB, itB > itA}},
	}
	for _, tc := range cases {
		for _, shared := range []bool{true, false} {
			my := mA
			if !shared {
				my = mB
			}
			wantX, wantItX, wantErrX := single(mA, x0, tc.rhsX, tc.opt)
			wantY, wantItY, wantErrY := single(my, y0, tc.rhsY, tc.opt)
			x, y := append([]float64(nil), x0...), append([]float64(nil), y0...)
			itx, ity, errX, errY := SolveCGPair(new(CGWork), mA, my, x, y, tc.rhsX, tc.rhsY, tc.opt)
			if itx != wantItX || ity != wantItY {
				t.Fatalf("%s shared=%v: iterations (%d, %d), one-axis solves (%d, %d)", tc.name, shared, itx, ity, wantItX, wantItY)
			}
			if (errX != nil) != (wantErrX != nil) || (errY != nil) != (wantErrY != nil) {
				t.Fatalf("%s shared=%v: errors (%v, %v), one-axis solves (%v, %v)", tc.name, shared, errX, errY, wantErrX, wantErrY)
			}
			if shared && ((errX != nil) != tc.wantErr[0] || (errY != nil) != tc.wantErr[1]) {
				t.Fatalf("%s: errors (%v, %v), want non-nil %v", tc.name, errX, errY, tc.wantErr)
			}
			for k, it := range [2]int{itx, ity} {
				if shared && tc.wantErr[k] && it != tc.opt.MaxIter {
					t.Fatalf("%s: axis %d stopped after %d iterations, want its budget %d", tc.name, k, it, tc.opt.MaxIter)
				}
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) || math.Float64bits(y[i]) != math.Float64bits(wantY[i]) {
					t.Fatalf("%s shared=%v: entry %d is (%v, %v), one-axis solves (%v, %v)", tc.name, shared, i, x[i], y[i], wantX[i], wantY[i])
				}
			}
		}
	}
}
