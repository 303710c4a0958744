package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArith(t *testing.T) {
	p, q := Point{1, 2}, Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.DistL1(q); got != 5 {
		t.Errorf("DistL1 = %v, want 5", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Fatalf("dims wrong: %v %v %v", r.Width(), r.Height(), r.Area())
	}
	if r.Empty() {
		t.Fatal("r should not be empty")
	}
	if (Rect{1, 1, 1, 5}).Area() != 0 {
		t.Fatal("degenerate rect must have area 0")
	}
	if !(Rect{3, 3, 2, 4}).Empty() {
		t.Fatal("inverted rect must be empty")
	}
	if r.Center() != (Point{2, 1}) {
		t.Fatalf("Center = %v", r.Center())
	}
	if !r.Contains(Point{4, 2}) { // boundary inclusive
		t.Fatal("boundary point must be contained")
	}
	if r.Contains(Point{4.01, 2}) {
		t.Fatal("outside point must not be contained")
	}
}

func TestRectOverlapTouchingNotOverlap(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	b := Rect{2, 0, 4, 2} // shares an edge
	if a.Overlaps(b) {
		t.Fatal("edge-sharing rects must not overlap")
	}
	c := Rect{1.5, 1, 3, 3}
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Fatal("overlapping rects not detected")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 1, 6, 3}
	is := a.Intersect(b)
	if is != (Rect{2, 1, 4, 3}) {
		t.Fatalf("Intersect = %v", is)
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 6, 4}) {
		t.Fatalf("Union = %v", u)
	}
	var empty Rect
	if a.Union(empty) != a || empty.Union(a) != a {
		t.Fatal("Union with empty must be identity")
	}
}

func TestRectContainsRect(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	if !a.ContainsRect(Rect{0, 0, 10, 10}) {
		t.Fatal("rect must contain itself")
	}
	if !a.ContainsRect(Rect{2, 2, 8, 8}) {
		t.Fatal("inner rect")
	}
	if a.ContainsRect(Rect{2, 2, 11, 8}) {
		t.Fatal("protruding rect must not be contained")
	}
}

func TestRectSubtract(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	s := Rect{3, 3, 7, 7}
	pieces := r.Subtract(s)
	if len(pieces) != 4 {
		t.Fatalf("want 4 pieces, got %d", len(pieces))
	}
	total := 0.0
	for i, p := range pieces {
		total += p.Area()
		if p.Overlaps(s) {
			t.Errorf("piece %d overlaps subtrahend", i)
		}
		for j := i + 1; j < len(pieces); j++ {
			if p.Overlaps(pieces[j]) {
				t.Errorf("pieces %d and %d overlap", i, j)
			}
		}
	}
	if math.Abs(total-(100-16)) > 1e-12 {
		t.Fatalf("total area = %v, want 84", total)
	}
	// Disjoint subtrahend leaves r untouched.
	pieces = r.Subtract(Rect{20, 20, 30, 30})
	if len(pieces) != 1 || pieces[0] != r {
		t.Fatalf("disjoint subtract = %v", pieces)
	}
	// Full cover leaves nothing.
	if got := r.Subtract(Rect{-1, -1, 11, 11}); len(got) != 0 {
		t.Fatalf("covered subtract = %v", got)
	}
}

// Property: Subtract pieces are disjoint, inside r, outside s, and their
// area equals Area(r) - Area(r ∩ s).
func TestRectSubtractProperty(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		r := Rect{float64(ax), float64(ay), float64(ax) + float64(aw%32) + 1, float64(ay) + float64(ah%32) + 1}
		s := Rect{float64(bx), float64(by), float64(bx) + float64(bw%32) + 1, float64(by) + float64(bh%32) + 1}
		pieces := r.Subtract(s)
		total := 0.0
		for i, p := range pieces {
			if p.Empty() {
				return false
			}
			if !r.ContainsRect(p) {
				return false
			}
			if p.Overlaps(s) {
				return false
			}
			for j := i + 1; j < len(pieces); j++ {
				if p.Overlaps(pieces[j]) {
					return false
				}
			}
			total += p.Area()
		}
		want := r.Area() - r.Intersect(s).Area()
		return math.Abs(total-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRectClampPoint(t *testing.T) {
	r := Rect{0, 0, 4, 4}
	cases := []struct{ in, want Point }{
		{Point{2, 2}, Point{2, 2}},
		{Point{-1, 2}, Point{0, 2}},
		{Point{5, 9}, Point{4, 4}},
	}
	for _, c := range cases {
		if got := r.ClampPoint(c.in); got != c.want {
			t.Errorf("ClampPoint(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRectSetNearest(t *testing.T) {
	rs := RectSet{{0, 0, 2, 2}, {10, 10, 12, 12}}
	if got, ok := rs.Nearest(Point{1, 1}); !ok || got != (Point{1, 1}) {
		t.Fatalf("inside point moved: %v (ok %v)", got, ok)
	}
	if got, ok := rs.Nearest(Point{9, 9}); !ok || got != (Point{10, 10}) {
		t.Fatalf("Nearest = %v (ok %v), want (10,10)", got, ok)
	}
	// (6,6) is at L1 distance 8 from both rectangles: the first one wins.
	if got, _ := rs.Nearest(Point{6, 6}); got != (Point{2, 2}) {
		t.Fatalf("tie: Nearest = %v, want (2,2) from the first rectangle", got)
	}
}

// TestRectSetNearestEmpty pins the empty-set contract: no point, ok ==
// false (returning the query point as a member would make empty regions
// look like zero-distance targets).
func TestRectSetNearestEmpty(t *testing.T) {
	if _, ok := (RectSet{}).Nearest(Point{5, 5}); ok {
		t.Fatal("Nearest on the empty set reported ok")
	}
	q, ok := RectSet{{2, 2, 4, 4}}.Nearest(Point{5, 5})
	if !ok {
		t.Fatal("Nearest on a non-empty set reported !ok")
	}
	if q != (Point{4, 4}) {
		t.Fatalf("nearest point = %v, want (4,4)", q)
	}
}

func TestRectExpandTranslate(t *testing.T) {
	r := Rect{1, 1, 3, 3}
	if r.Expand(1) != (Rect{0, 0, 4, 4}) {
		t.Fatalf("Expand = %v", r.Expand(1))
	}
	if r.Translate(Point{2, -1}) != (Rect{3, 0, 5, 2}) {
		t.Fatalf("Translate = %v", r.Translate(Point{2, -1}))
	}
}

func TestRectSetArea(t *testing.T) {
	s := RectSet{{0, 0, 2, 2}, {1, 1, 3, 3}} // overlap area 1
	if got := s.Area(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("Area = %v, want 7", got)
	}
	if got := (RectSet{}).Area(); got != 0 {
		t.Fatalf("empty set area = %v", got)
	}
	if got := (RectSet{{0, 0, 5, 1}}).Area(); got != 5 {
		t.Fatalf("single area = %v", got)
	}
}

// Property: union area of random rect sets matches a Monte-Carlo-free exact
// reference computed by inclusion on the Hanan tiles directly.
func TestRectSetAreaMatchesTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(6)
		var s RectSet
		for i := 0; i < n; i++ {
			x, y := float64(rng.Intn(20)), float64(rng.Intn(20))
			s = append(s, Rect{x, y, x + 1 + float64(rng.Intn(10)), y + 1 + float64(rng.Intn(10))})
		}
		// Reference: rasterize on unit tiles inside the bbox.
		bb := s.BBox()
		ref := 0.0
		for x := bb.Xlo; x < bb.Xhi; x++ {
			for y := bb.Ylo; y < bb.Yhi; y++ {
				if s.Contains(Point{x + 0.5, y + 0.5}) {
					ref++
				}
			}
		}
		if got := s.Area(); math.Abs(got-ref) > 1e-6 {
			t.Fatalf("iter %d: Area = %v, ref = %v, set %v", iter, got, ref, s)
		}
	}
}

func TestRectSetContainsRect(t *testing.T) {
	// An L-shape covering [0,4]x[0,2] plus [0,2]x[2,4].
	s := RectSet{{0, 0, 4, 2}, {0, 2, 2, 4}}
	if !s.ContainsRect(Rect{0, 0, 4, 2}) {
		t.Fatal("must contain its own member")
	}
	if !s.ContainsRect(Rect{1, 1, 2, 3}) {
		t.Fatal("must contain rect straddling both members")
	}
	if s.ContainsRect(Rect{1, 1, 3, 3}) {
		t.Fatal("must not contain rect sticking into the notch")
	}
	if !s.ContainsRect(Rect{}) {
		t.Fatal("empty rect is contained anywhere")
	}
}

func TestRectSetClipBBox(t *testing.T) {
	s := RectSet{{0, 0, 4, 4}, {6, 6, 8, 8}}
	bb := s.BBox()
	if bb != (Rect{0, 0, 8, 8}) {
		t.Fatalf("BBox = %v", bb)
	}
	c := s.Clip(Rect{2, 2, 7, 7})
	if len(c) != 2 {
		t.Fatalf("Clip size = %d", len(c))
	}
	if c[0] != (Rect{2, 2, 4, 4}) || c[1] != (Rect{6, 6, 7, 7}) {
		t.Fatalf("Clip = %v", c)
	}
	if got := s.Clip(Rect{4, 4, 6, 6}); len(got) != 0 {
		t.Fatalf("clip to gap = %v", got)
	}
}

func TestHananGridTilesPartitionArea(t *testing.T) {
	area := Rect{0, 0, 10, 10}
	rects := RectSet{{1, 1, 4, 5}, {3, 2, 8, 9}}
	g := NewHananGrid(area, rects)
	tiles := g.Tiles()
	total := 0.0
	for i, a := range tiles {
		total += a.Area()
		if !area.ContainsRect(a) {
			t.Fatalf("tile %d outside area", i)
		}
		for j := i + 1; j < len(tiles); j++ {
			if a.Overlaps(tiles[j]) {
				t.Fatalf("tiles %d,%d overlap", i, j)
			}
		}
	}
	if math.Abs(total-area.Area()) > 1e-9 {
		t.Fatalf("tiles area = %v, want %v", total, area.Area())
	}
	// Every tile is either fully inside or fully outside each input rect.
	for _, a := range tiles {
		for _, r := range rects {
			if a.Overlaps(r) && !r.ContainsRect(a) {
				t.Fatalf("tile %v straddles rect %v", a, r)
			}
		}
	}
}

// Property (Lemma 1): the Hanan grid of l rectangles has O(l^2) tiles —
// concretely at most (2l+1)^2 — and the tiles partition the area.
func TestHananGridSizeBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		area := Rect{0, 0, 100, 100}
		l := 1 + rng.Intn(8)
		var s RectSet
		for i := 0; i < l; i++ {
			x, y := rng.Float64()*90, rng.Float64()*90
			s = append(s, Rect{x, y, x + 1 + rng.Float64()*9, y + 1 + rng.Float64()*9})
		}
		tiles := NewHananGrid(area, s).Tiles()
		if len(tiles) > (2*l+1)*(2*l+1) {
			return false
		}
		total := 0.0
		for _, tl := range tiles {
			total += tl.Area()
		}
		return math.Abs(total-area.Area()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHananGridClipsOutsideLines(t *testing.T) {
	area := Rect{0, 0, 10, 10}
	// Rectangle partially outside the area: outside corners are dropped.
	g := NewHananGrid(area, RectSet{{5, 5, 20, 20}})
	for _, x := range g.Xs {
		if x < 0 || x > 10 {
			t.Fatalf("x line %v outside area", x)
		}
	}
	if len(g.Xs) != 3 || len(g.Ys) != 3 { // 0, 5, 10
		t.Fatalf("grid lines = %v / %v", g.Xs, g.Ys)
	}
}

// Property: RectSet.ContainsRect agrees with dense rasterization on
// integer-coordinate sets.
func TestRectSetContainsRectMatchesRaster(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 60; trial++ {
		var s RectSet
		for i := 0; i < 1+rng.Intn(4); i++ {
			x, y := float64(rng.Intn(8)), float64(rng.Intn(8))
			s = append(s, Rect{x, y, x + 1 + float64(rng.Intn(6)), y + 1 + float64(rng.Intn(6))})
		}
		qx, qy := float64(rng.Intn(8)), float64(rng.Intn(8))
		q := Rect{qx, qy, qx + 1 + float64(rng.Intn(5)), qy + 1 + float64(rng.Intn(5))}
		// Raster reference on unit cells of q.
		covered := true
		for x := q.Xlo; x < q.Xhi && covered; x++ {
			for y := q.Ylo; y < q.Yhi; y++ {
				if !s.Contains(Point{x + 0.5, y + 0.5}) {
					covered = false
					break
				}
			}
		}
		if got := s.ContainsRect(q); got != covered {
			t.Fatalf("trial %d: ContainsRect=%v raster=%v (set %v, q %v)", trial, got, covered, s, q)
		}
	}
}
