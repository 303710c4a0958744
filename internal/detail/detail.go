// Package detail implements detailed placement: local, legality-preserving
// HPWL optimization after legalization. Two moves are used, both standard
// in production flows:
//
//   - window reordering: consecutive cells of one row are permuted and
//     re-packed within their span, keeping the best permutation;
//   - global swaps: pairs of equal-width cells exchange positions when
//     that shortens the involved nets.
//
// Movebounds are respected: a move is rejected if any touched cell would
// leave its movebound area or enter a foreign exclusive area. Fixed cells
// are too: a reorder window whose span crosses one is skipped, since
// re-packing it would slide cells over the obstacle. The paper
// delegates detailed placement to the surrounding BonnPlace flow; this
// package provides the equivalent so the repository is usable end to end.
package detail

import (
	"math"
	"slices"
	"sort"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// Options tunes the optimizer.
type Options struct {
	// Passes is the number of full sweeps. Default 2.
	Passes int
}

// windowSize is the number of adjacent cells each reorder tries in every
// permutation.
const windowSize = 3

// Result reports the improvement.
type Result struct {
	InitialHPWL, FinalHPWL float64
	// Reorders and Swaps count the accepted moves.
	Reorders, Swaps int
}

// optimizer carries indexed state for incremental HPWL evaluation.
type optimizer struct {
	n       *netlist.Netlist
	mbs     []region.Movebound
	fixed   geom.RectSet          // fixed cells (macros), which no move may cover
	netsOf  *netlist.CellNetIndex // cell -> incident nets
	rows    [][]netlist.CellID
	rowOf   func(y float64) int
	numRows int
	// netMark[ni] == epoch marks net ni as collected by the current
	// netsTouching call; nets is that call's result buffer.
	netMark []uint32
	epoch   uint32
	nets    []netlist.NetID
}

// Optimize runs detailed placement on a legalized netlist in place.
func Optimize(n *netlist.Netlist, mbs []region.Movebound, opt Options) (Result, error) {
	if opt.Passes == 0 {
		opt.Passes = 2
	}
	res := Result{InitialHPWL: n.HPWL()}
	o := &optimizer{n: n, mbs: mbs, fixed: n.FixedRects(), netsOf: n.NetIndex(), netMark: make([]uint32, len(n.Nets))}
	for pass := 0; pass < opt.Passes; pass++ {
		o.buildRows()
		r := o.reorderPass(windowSize)
		s := o.swapPass()
		res.Reorders += r
		res.Swaps += s
		if r+s == 0 {
			break
		}
	}
	res.FinalHPWL = n.HPWL()
	return res, nil
}

func (o *optimizer) buildRows() {
	n := o.n
	rh := n.RowHeight
	o.numRows = int((n.Area.Height() + 1e-9) / rh)
	o.rowOf = func(y float64) int {
		r := int((y - rh/2 - n.Area.Ylo) / rh)
		if r < 0 {
			r = 0
		}
		if r >= o.numRows {
			r = o.numRows - 1
		}
		return r
	}
	o.rows = make([][]netlist.CellID, o.numRows)
	for i := range n.Cells {
		if n.Cells[i].Fixed {
			continue
		}
		r := o.rowOf(n.Y[i])
		o.rows[r] = append(o.rows[r], netlist.CellID(i))
	}
	for r := range o.rows {
		row := o.rows[r]
		sort.Slice(row, func(a, b int) bool {
			//fbpvet:floatok exact tie-break on stored coordinates keeps the sort total
			if n.X[row[a]] != n.X[row[b]] {
				return n.X[row[a]] < n.X[row[b]]
			}
			return row[a] < row[b]
		})
	}
}

// hpwlOf returns the total HPWL of the given nets, summed in their order.
func (o *optimizer) hpwlOf(nets []netlist.NetID) float64 {
	total := 0.0
	for _, ni := range nets {
		total += o.n.NetHPWL(ni)
	}
	return total
}

// netsTouching returns the nets of the given cells, deduplicated and
// ascending, so every HPWL total (and with it every accept/reject
// decision) is summed in one fixed order. The slice is reused by the next
// call.
func (o *optimizer) netsTouching(cells []netlist.CellID) []netlist.NetID {
	o.epoch++
	if o.epoch == 0 {
		clear(o.netMark)
		o.epoch = 1
	}
	out := o.nets[:0]
	for _, c := range cells {
		for _, ni := range o.netsOf.Nets(c) {
			if o.netMark[ni] != o.epoch {
				o.netMark[ni] = o.epoch
				out = append(out, ni)
			}
		}
	}
	slices.Sort(out)
	o.nets = out
	return out
}

// legalAt reports whether cell id placed at p respects the movebounds.
func (o *optimizer) legalAt(id netlist.CellID, p geom.Point) bool {
	c := &o.n.Cells[id]
	r := geom.Rect{
		Xlo: p.X - c.Width/2, Ylo: p.Y - c.Height/2,
		Xhi: p.X + c.Width/2, Yhi: p.Y + c.Height/2,
	}
	// Movebound indices beyond the provided list are treated as
	// unbounded (callers may optimize without movebound context).
	if c.Movebound != netlist.NoMovebound && c.Movebound < len(o.mbs) {
		if !o.mbs[c.Movebound].Area.ContainsRect(r.Expand(-1e-9)) {
			return false
		}
	}
	for m := range o.mbs {
		if o.mbs[m].Kind == region.Exclusive && m != c.Movebound && o.mbs[m].Area.OverlapsRect(r.Expand(-1e-9)) {
			return false
		}
	}
	return true
}

// reorderPass permutes sliding windows of consecutive same-row cells.
func (o *optimizer) reorderPass(k int) int {
	n := o.n
	accepted := 0
	for _, row := range o.rows {
		for start := 0; start+k <= len(row); start++ {
			win := row[start : start+k]
			// Span: from the left edge of the first cell to the right
			// edge of the last (gaps inside the span are compacted).
			left := n.X[win[0]] - n.Cells[win[0]].Width/2
			right := n.X[win[k-1]] + n.Cells[win[k-1]].Width/2
			total := 0.0
			for _, c := range win {
				total += n.Cells[c].Width
			}
			if total > right-left+1e-9 || o.spanBlocked(win, left, right) {
				continue
			}
			nets := o.netsTouching(win)
			baseline := o.hpwlOf(nets)
			origX := make([]float64, k)
			for i, c := range win {
				origX[i] = n.X[c]
			}
			bestPerm := -1
			bestHPWL := baseline
			var bestX []float64
			perms := permutations(k)
			for pi, perm := range perms {
				// Pack the permuted cells left-justified in the span.
				x := left
				ok := true
				xs := make([]float64, k)
				for _, idx := range perm {
					c := win[idx]
					xs[idx] = x + n.Cells[c].Width/2
					if !o.legalAt(c, geom.Point{X: xs[idx], Y: n.Y[c]}) {
						ok = false
						break
					}
					x += n.Cells[c].Width
				}
				if !ok {
					continue
				}
				for i, c := range win {
					n.X[c] = xs[i]
				}
				if h := o.hpwlOf(nets); h < bestHPWL-1e-9 {
					bestHPWL = h
					bestPerm = pi
					bestX = xs
				}
				for i, c := range win {
					n.X[c] = origX[i]
				}
			}
			if bestPerm >= 0 {
				for i, c := range win {
					n.X[c] = bestX[i]
				}
				// Keep the row sorted by x for subsequent windows.
				sort.Slice(win, func(a, b int) bool { return n.X[win[a]] < n.X[win[b]] })
				accepted++
			}
		}
	}
	return accepted
}

// spanBlocked reports whether the row span [left, right] of a reorder
// window overlaps a fixed cell. Packing is left-justified over the whole
// span, so a macro between the window's cells would be packed over.
func (o *optimizer) spanBlocked(win []netlist.CellID, left, right float64) bool {
	span := geom.Rect{Xlo: left, Xhi: right, Ylo: math.Inf(1), Yhi: math.Inf(-1)}
	for _, c := range win {
		h := o.n.Cells[c].Height / 2
		span.Ylo = math.Min(span.Ylo, o.n.Y[c]-h)
		span.Yhi = math.Max(span.Yhi, o.n.Y[c]+h)
	}
	return o.fixed.OverlapsRect(span.Expand(-1e-9))
}

// swapPass exchanges equal-width cell pairs across the chip when the
// involved nets shrink. Candidate partners are taken from the same and
// adjacent rows within a horizontal distance budget.
func (o *optimizer) swapPass() int {
	n := o.n
	accepted := 0
	for r := range o.rows {
		for _, a := range o.rows[r] {
			best := netlist.CellID(-1)
			bestGain := 1e-9
			var bestPosA, bestPosB geom.Point
			for dr := -1; dr <= 1; dr++ {
				rr := r + dr
				if rr < 0 || rr >= o.numRows {
					continue
				}
				for _, b := range o.rows[rr] {
					if b == a || math.Abs(n.Cells[a].Width-n.Cells[b].Width) > 1e-9 {
						continue
					}
					if math.Abs(n.X[a]-n.X[b]) > n.Area.Width()/8 {
						continue
					}
					pa, pb := n.Pos(a), n.Pos(b)
					if !o.legalAt(a, pb) || !o.legalAt(b, pa) {
						continue
					}
					nets := o.netsTouching([]netlist.CellID{a, b})
					before := o.hpwlOf(nets)
					n.SetPos(a, pb)
					n.SetPos(b, pa)
					after := o.hpwlOf(nets)
					n.SetPos(a, pa)
					n.SetPos(b, pb)
					if gain := before - after; gain > bestGain {
						best, bestGain = b, gain
						bestPosA, bestPosB = pb, pa
					}
				}
			}
			if best >= 0 {
				n.SetPos(a, bestPosA)
				n.SetPos(best, bestPosB)
				accepted++
			}
		}
		// Rebuild this row's order after swaps.
		row := o.rows[r]
		sort.Slice(row, func(x, y int) bool { return n.X[row[x]] < n.X[row[y]] })
	}
	return accepted
}

// permutations returns all permutations of 0..k-1 (k <= 4).
func permutations(k int) [][]int {
	base := make([]int, k)
	for i := range base {
		base[i] = i
	}
	var out [][]int
	var rec func(cur []int, rest []int)
	rec = func(cur []int, rest []int) {
		if len(rest) == 0 {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := range rest {
			next := append(cur, rest[i])
			var remain []int
			remain = append(remain, rest[:i]...)
			remain = append(remain, rest[i+1:]...)
			rec(next, remain)
		}
	}
	rec(nil, base)
	return out
}
