// Package geom provides the planar geometry substrate for the placer:
// points, axis-parallel rectangles, rectangle sets, and the Hanan grid
// decomposition used for movebound region construction (paper §II, Lemma 1).
//
// All coordinates are float64 in an abstract unit (typically the row height
// of the design is a small integer multiple of the unit). Rectangles are
// half-open in spirit: zero-area rectangles are considered empty, and two
// rectangles that share only a boundary segment do not overlap.
package geom

import (
	"fmt"
	"math"
	"sort"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// DistL1 returns the Manhattan (L1) distance between p and q. The placer
// uses L1 distances as partitioning movement costs throughout.
func (p Point) DistL1(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Rect is an axis-parallel rectangle [Xlo,Xhi] x [Ylo,Yhi].
type Rect struct {
	Xlo, Ylo, Xhi, Yhi float64
}

// Width returns the horizontal extent of r (never negative for valid rects).
func (r Rect) Width() float64 { return r.Xhi - r.Xlo }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Yhi - r.Ylo }

// Area returns the area of r; empty or inverted rectangles have area 0.
func (r Rect) Area() float64 {
	w, h := r.Width(), r.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Empty reports whether r has no interior.
func (r Rect) Empty() bool { return r.Xhi <= r.Xlo || r.Yhi <= r.Ylo }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.Xlo + r.Xhi) / 2, (r.Ylo + r.Yhi) / 2} }

// Contains reports whether the point p lies in r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Xlo && p.X <= r.Xhi && p.Y >= r.Ylo && p.Y <= r.Yhi
}

// ContainsRect reports whether s lies entirely within r (boundary
// inclusive). Empty s is contained in anything that contains its corner.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Xlo >= r.Xlo && s.Xhi <= r.Xhi && s.Ylo >= r.Ylo && s.Yhi <= r.Yhi
}

// Overlaps reports whether r and s share interior points. Touching
// boundaries do not count as overlap.
func (r Rect) Overlaps(s Rect) bool {
	return r.Xlo < s.Xhi && s.Xlo < r.Xhi && r.Ylo < s.Yhi && s.Ylo < r.Yhi
}

// Intersect returns the common rectangle of r and s. The result may be
// empty; callers should check Empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Xlo: math.Max(r.Xlo, s.Xlo),
		Ylo: math.Max(r.Ylo, s.Ylo),
		Xhi: math.Min(r.Xhi, s.Xhi),
		Yhi: math.Min(r.Yhi, s.Yhi),
	}
}

// Union returns the bounding box of r and s. Empty operands are ignored.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		Xlo: math.Min(r.Xlo, s.Xlo),
		Ylo: math.Min(r.Ylo, s.Ylo),
		Xhi: math.Max(r.Xhi, s.Xhi),
		Yhi: math.Max(r.Yhi, s.Yhi),
	}
}

// Expand returns r grown by d on every side (shrunk for negative d).
func (r Rect) Expand(d float64) Rect {
	return Rect{r.Xlo - d, r.Ylo - d, r.Xhi + d, r.Yhi + d}
}

// Translate returns r shifted by the vector p.
func (r Rect) Translate(p Point) Rect {
	return Rect{r.Xlo + p.X, r.Ylo + p.Y, r.Xhi + p.X, r.Yhi + p.Y}
}

// ClampPoint returns the point of r closest to p.
func (r Rect) ClampPoint(p Point) Point {
	return Point{clamp(p.X, r.Xlo, r.Xhi), clamp(p.Y, r.Ylo, r.Yhi)}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.Xlo, r.Xhi, r.Ylo, r.Yhi)
}

// Subtract returns r minus s as a set of at most four disjoint rectangles.
// If r and s do not overlap the result is just {r}.
func (r Rect) Subtract(s Rect) []Rect {
	is := r.Intersect(s)
	if is.Empty() {
		if r.Empty() {
			return nil
		}
		return []Rect{r}
	}
	var out []Rect
	// Bottom band.
	if is.Ylo > r.Ylo {
		out = append(out, Rect{r.Xlo, r.Ylo, r.Xhi, is.Ylo})
	}
	// Top band.
	if is.Yhi < r.Yhi {
		out = append(out, Rect{r.Xlo, is.Yhi, r.Xhi, r.Yhi})
	}
	// Left and right slivers at the intersection's vertical span.
	if is.Xlo > r.Xlo {
		out = append(out, Rect{r.Xlo, is.Ylo, is.Xlo, is.Yhi})
	}
	if is.Xhi < r.Xhi {
		out = append(out, Rect{is.Xhi, is.Ylo, r.Xhi, is.Yhi})
	}
	return out
}

// RectSet is a finite set of rectangles; the rectangles are not required
// to be disjoint unless stated by the producing operation.
type RectSet []Rect

// Area returns the area of the union of the rectangles in s (overlaps are
// counted once). It runs a sweep over the Hanan decomposition of s, which
// is robust and, at the set sizes used for movebound areas, fast enough.
func (s RectSet) Area() float64 {
	if len(s) == 0 {
		return 0
	}
	if len(s) == 1 {
		return s[0].Area()
	}
	xs, ys := hananCoords(s)
	total := 0.0
	for i := 0; i+1 < len(xs); i++ {
		for j := 0; j+1 < len(ys); j++ {
			tile := Rect{xs[i], ys[j], xs[i+1], ys[j+1]}
			if tile.Empty() {
				continue
			}
			c := tile.Center()
			for _, r := range s {
				if r.Contains(c) && !r.Empty() {
					total += tile.Area()
					break
				}
			}
		}
	}
	return total
}

// Contains reports whether p lies in the union of the set.
func (s RectSet) Contains(p Point) bool {
	for _, r := range s {
		if !r.Empty() && r.Contains(p) {
			return true
		}
	}
	return false
}

// ContainsRect reports whether r is entirely covered by the union of the
// set. It checks each tile of the Hanan grid of s restricted to r.
func (s RectSet) ContainsRect(r Rect) bool {
	if r.Empty() {
		return true
	}
	// Fast path: single containing rectangle.
	for _, q := range s {
		if q.ContainsRect(r) {
			return true
		}
	}
	rem := []Rect{r}
	for _, q := range s {
		var next []Rect
		for _, piece := range rem {
			next = append(next, piece.Subtract(q)...)
		}
		rem = next
		if len(rem) == 0 {
			return true
		}
	}
	for _, piece := range rem {
		if piece.Area() > areaEps {
			return false
		}
	}
	return true
}

// OverlapsRect reports whether any rectangle of the set shares interior
// points with r.
func (s RectSet) OverlapsRect(r Rect) bool {
	for _, q := range s {
		if q.Overlaps(r) {
			return true
		}
	}
	return false
}

// Overlaps reports whether any rectangle of s shares interior points with
// any rectangle of b.
func (s RectSet) Overlaps(b RectSet) bool {
	for _, r := range s {
		if b.OverlapsRect(r) {
			return true
		}
	}
	return false
}

// Subtract returns the part of the set's union not covered by b, as
// pieces of the set's rectangles (the pieces of one rectangle are
// interior-disjoint). It removes one rectangle of b at a time from every
// current piece, so the pieces come out in a fixed order; an empty b
// returns a copy of s.
func (s RectSet) Subtract(b RectSet) RectSet {
	cur := append(RectSet(nil), s...)
	for _, q := range b {
		var next RectSet
		for _, r := range cur {
			next = append(next, r.Subtract(q)...)
		}
		cur = next
	}
	return cur
}

// Nearest returns the point of the set closest (L1) to p; on a tie the
// earliest rectangle wins. ok is false for an empty set: the query point
// comes back then, and callers must not treat it as a member.
func (s RectSet) Nearest(p Point) (q Point, ok bool) {
	q, bestD := p, 0.0
	for i, r := range s {
		c := r.ClampPoint(p)
		if d := c.DistL1(p); i == 0 || d < bestD {
			q, bestD = c, d
		}
	}
	return q, len(s) > 0
}

// BBox returns the bounding box of all non-empty rectangles in the set.
func (s RectSet) BBox() Rect {
	var bb Rect
	first := true
	for _, r := range s {
		if r.Empty() {
			continue
		}
		if first {
			bb, first = r, false
		} else {
			bb = bb.Union(r)
		}
	}
	return bb
}

// Clip returns the set intersected with the window w (dropping empties).
func (s RectSet) Clip(w Rect) RectSet {
	var out RectSet
	for _, r := range s {
		ir := r.Intersect(w)
		if !ir.Empty() {
			out = append(out, ir)
		}
	}
	return out
}

// areaEps is the tolerance under which residual areas are treated as
// numerical noise by the coverage predicates.
const areaEps = 1e-9

// hananCoords returns the sorted, deduplicated x and y coordinates of all
// rectangle corners in the set.
func hananCoords(s RectSet) (xs, ys []float64) {
	xs = make([]float64, 0, 2*len(s))
	ys = make([]float64, 0, 2*len(s))
	for _, r := range s {
		if r.Empty() {
			continue
		}
		xs = append(xs, r.Xlo, r.Xhi)
		ys = append(ys, r.Ylo, r.Yhi)
	}
	return dedupSorted(xs), dedupSorted(ys)
}

func dedupSorted(v []float64) []float64 {
	sort.Float64s(v)
	out := v[:0]
	for i, x := range v {
		//fbpvet:floatok dedup of bit-identical sorted coordinates is exact by design
		if i == 0 || x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

// HananGrid is the grid induced by the corner coordinates of a rectangle
// set, clipped to a bounding area. It is the decomposition used by Lemma 1
// to build movebound regions with O(l^2) rectangles.
type HananGrid struct {
	Xs, Ys []float64 // grid lines, sorted ascending, length >= 2
}

// NewHananGrid builds the Hanan grid of the given rectangles inside area.
// The area's own corners are always grid lines, and all grid lines are
// clipped to the area.
func NewHananGrid(area Rect, rects RectSet) HananGrid {
	xs, ys := hananCoords(rects)
	xs = append(xs, area.Xlo, area.Xhi)
	ys = append(ys, area.Ylo, area.Yhi)
	xs, ys = dedupSorted(xs), dedupSorted(ys)
	xs = clipLines(xs, area.Xlo, area.Xhi)
	ys = clipLines(ys, area.Ylo, area.Yhi)
	return HananGrid{Xs: xs, Ys: ys}
}

func clipLines(v []float64, lo, hi float64) []float64 {
	out := v[:0]
	for _, x := range v {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	return out
}

// Tiles returns all non-empty grid tiles in row-major order (y outer,
// x inner).
func (g HananGrid) Tiles() []Rect {
	tiles := make([]Rect, 0, (len(g.Xs)-1)*(len(g.Ys)-1))
	for j := 0; j+1 < len(g.Ys); j++ {
		for i := 0; i+1 < len(g.Xs); i++ {
			t := Rect{g.Xs[i], g.Ys[j], g.Xs[i+1], g.Ys[j+1]}
			if !t.Empty() {
				tiles = append(tiles, t)
			}
		}
	}
	return tiles
}
