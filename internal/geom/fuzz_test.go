package geom

import (
	"math"
	"testing"
)

// FuzzRectAlgebra checks the rectangle-algebra identities the partitioner
// and region subsystem rely on, over arbitrary finite coordinates:
// intersection is contained in both operands, union contains both,
// Overlaps agrees with Intersect, Subtract partitions the minuend
// exactly, and the set forms of Subtract and Overlaps keep the same laws.
func FuzzRectAlgebra(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 10.0, 2.0, 3.0, 8.0, 12.0)
	f.Add(-5.0, -5.0, 5.0, 5.0, -1.0, -1.0, 1.0, 1.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)
	f.Add(0.0, 0.0, 8.0, 8.0, 2.0, 2.0, 6.0, 6.0)    // s strictly inside r
	f.Add(0.0, 0.0, 10.0, 2.0, 5.0, 5.0, 15.0, 10.0) // r, s apart; the sets overlap
	f.Fuzz(func(t *testing.T, ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 float64) {
		for _, v := range []float64{ax0, ay0, ax1, ay1, bx0, by0, bx1, by1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		r := Rect{math.Min(ax0, ax1), math.Min(ay0, ay1), math.Max(ax0, ax1), math.Max(ay0, ay1)}
		s := Rect{math.Min(bx0, bx1), math.Min(by0, by1), math.Max(bx0, bx1), math.Max(by0, by1)}

		is := r.Intersect(s)
		if !is.Empty() && (!r.ContainsRect(is) || !s.ContainsRect(is)) {
			t.Fatalf("Intersect %v of %v, %v escapes an operand", is, r, s)
		}
		u := r.Union(s)
		if (!r.Empty() && !u.ContainsRect(r)) || (!s.Empty() && !u.ContainsRect(s)) {
			t.Fatalf("Union %v of %v, %v misses an operand", u, r, s)
		}
		if r.Overlaps(s) != s.Overlaps(r) {
			t.Fatalf("Overlaps not symmetric for %v, %v", r, s)
		}
		// Overlaps <=> non-empty intersection only holds for non-degenerate
		// operands: a zero-width r can satisfy the strict cross-comparisons
		// while its intersection is empty.
		if !r.Empty() && !s.Empty() && r.Overlaps(s) != !is.Empty() {
			t.Fatalf("Overlaps=%v but Intersect=%v for %v, %v", r.Overlaps(s), is, r, s)
		}

		// Subtract partitions r: every piece is non-empty, inside r,
		// interior-disjoint from s, and the areas add back up.
		pieces := r.Subtract(s)
		sum := 0.0
		for _, p := range pieces {
			if p.Empty() {
				t.Fatalf("Subtract emitted empty piece %v for %v - %v", p, r, s)
			}
			if !r.ContainsRect(p) {
				t.Fatalf("piece %v escapes minuend %v", p, r)
			}
			if !p.Intersect(s).Empty() {
				t.Fatalf("piece %v overlaps subtrahend %v", p, s)
			}
			sum += p.Area()
		}
		// With overflowed (infinite) areas the difference is NaN and the
		// comparison is vacuously false, which is the right outcome: the
		// identity is only meaningful in finite arithmetic.
		want := r.Area() - is.Area()
		if math.Abs(sum-want) > 1e-9*math.Max(1, r.Area()) {
			t.Fatalf("Subtract areas sum to %g, want %g for %v - %v", sum, want, r, s)
		}
		// RectSet union area matches inclusion-exclusion for two rects.
		got := RectSet{r, s}.Area()
		ie := r.Area() + s.Area() - is.Area()
		if math.Abs(got-ie) > 1e-9*math.Max(1, ie) {
			t.Fatalf("RectSet area %g, want %g for %v, %v", got, ie, r, s)
		}

		// Set algebra on two-rectangle sets: each operand gets a second,
		// crossing rectangle built from both inputs, so pieces are cut
		// more than once and the sets may overlap themselves.
		var a, b RectSet
		for _, q := range []Rect{r, {s.Xlo, r.Ylo, r.Xhi, s.Yhi}} {
			if !q.Empty() {
				a = append(a, q)
			}
		}
		for _, q := range []Rect{s, {r.Xlo, s.Ylo, s.Xhi, r.Yhi}} {
			if !q.Empty() {
				b = append(b, q)
			}
		}
		var inter RectSet
		for _, p := range a {
			inter = append(inter, b.Clip(p)...)
		}
		diff := a.Subtract(b)
		for _, p := range diff {
			if b.OverlapsRect(p) {
				t.Fatalf("piece %v of %v - %v overlaps the subtrahend", p, a, b)
			}
		}
		// area(a) = area(a-b) + area(a∩b); overflowed areas compare as NaN
		// and pass, as above.
		aa, da, ia := a.Area(), diff.Area(), inter.Area()
		if math.Abs(aa-(da+ia)) > 1e-9*math.Max(1, aa) {
			t.Fatalf("area(a) %g != area(a-b) %g + area(a∩b) %g for %v, %v", aa, da, ia, a, b)
		}
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("RectSet.Overlaps not symmetric for %v, %v", a, b)
		}
		if a.Overlaps(b) != (len(inter) > 0) {
			t.Fatalf("RectSet.Overlaps=%v but intersection %v for %v, %v", a.Overlaps(b), inter, a, b)
		}
	})
}
