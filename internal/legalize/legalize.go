// Package legalize implements the legalization stage standing in for
// Brenner-Vygen minimum-movement legalization [6]: standard cells are
// snapped into rows without overlaps while minimizing movement with an
// Abacus-style cluster algorithm (cells never waste row space; clusters of
// abutting cells slide to their quadratic-optimal positions). It follows
// the scheme of paper §III: given the region decomposition of the chip,
// partition cells onto regions with the movebound-aware transportation,
// then legalize each region's cells inside the region area — so cells of
// different (even overlapping) movebounds are legalized simultaneously. A
// chip without movebounds is the one-region case.
package legalize

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/region"
	"fbplace/internal/transport"
)

// Options tunes legalization.
type Options struct {
	// Obs, when non-nil, records the partition/pack/spill phase spans and
	// the counters "legalize.cells", "legalize.spilled" and
	// "legalize.failed".
	Obs *obs.Recorder
	// Ctx, when non-nil, cancels the region partitioning's
	// transportation.
	Ctx context.Context
}

// Result reports movement statistics.
type Result struct {
	// Moved is the total L1 movement of all legalized cells.
	Moved float64
	// MaxMove is the largest single-cell movement.
	MaxMove float64
	// Failed counts cells that could not be placed without overlap.
	Failed int
	// FailedCells lists them.
	FailedCells []netlist.CellID
}

// cluster is a maximal run of abutting cells in one segment (Abacus).
type cluster struct {
	xc     float64 // current start position
	w      float64 // total width
	weight float64 // number of member cells (uniform weights)
	q      float64 // sum over members of (desired start - offset in cluster)
	cells  []netlist.CellID
}

// segment is a free interval of one row holding a list of clusters.
type segment struct {
	rowY     float64 // bottom of the row
	x0, x1   float64
	used     float64
	clusters []cluster
}

// buildSegments splits each row intersecting the allowed area into free
// segments (allowed minus blockages). Rows are anchored at the chip
// bottom.
func buildSegments(n *netlist.Netlist, allowed geom.RectSet, blockages geom.RectSet) [][]segment {
	rh := n.RowHeight
	numRows := int((n.Area.Height() + 1e-9) / rh)
	rows := make([][]segment, numRows)
	for r := 0; r < numRows; r++ {
		y0 := n.Area.Ylo + float64(r)*rh
		rowRect := geom.Rect{Xlo: n.Area.Xlo, Ylo: y0, Xhi: n.Area.Xhi, Yhi: y0 + rh}
		var free []geom.Rect
		for _, a := range allowed {
			ir := a.Intersect(rowRect)
			if !ir.Empty() && ir.Yhi-ir.Ylo >= rh-1e-9 {
				free = append(free, ir)
			}
		}
		for _, b := range blockages {
			if !b.Overlaps(rowRect) {
				continue
			}
			var next []geom.Rect
			for _, f := range free {
				for _, piece := range f.Subtract(b) {
					if piece.Yhi-piece.Ylo >= rh-1e-9 {
						next = append(next, piece)
					}
				}
			}
			free = next
		}
		sort.Slice(free, func(i, j int) bool { return free[i].Xlo < free[j].Xlo })
		for _, f := range free {
			rows[r] = append(rows[r], segment{rowY: y0, x0: f.Xlo, x1: f.Xhi})
		}
	}
	return rows
}

func clampStart(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// trialInsert simulates appending a cell with the given width and desired
// start position into the segment, returning the final start position of
// the cell. It does not modify the segment.
func (s *segment) trialInsert(width, desiredStart float64) (float64, bool) {
	if s.used+width > s.x1-s.x0+1e-9 {
		return 0, false
	}
	vq := clampStart(desiredStart, s.x0, s.x1-width)
	vweight, vw := 1.0, width
	xc := clampStart(vq/vweight, s.x0, s.x1-vw)
	for i := len(s.clusters) - 1; i >= 0; i-- {
		c := &s.clusters[i]
		if c.xc+c.w <= xc+1e-12 {
			break
		}
		// Merge predecessor cluster c with the virtual cluster.
		vq = c.q + (vq - vweight*c.w)
		vweight += c.weight
		vw += c.w
		xc = clampStart(vq/vweight, s.x0, s.x1-vw)
	}
	return xc + vw - width, true
}

// insert commits the append of one cell (same math as trialInsert).
func (s *segment) insert(id netlist.CellID, width, desiredStart float64) {
	s.used += width
	nc := cluster{
		xc:     clampStart(desiredStart, s.x0, s.x1-width),
		w:      width,
		weight: 1,
		q:      clampStart(desiredStart, s.x0, s.x1-width),
		cells:  []netlist.CellID{id},
	}
	s.clusters = append(s.clusters, nc)
	// Collapse while the last cluster overlaps its predecessor.
	for len(s.clusters) >= 2 {
		last := &s.clusters[len(s.clusters)-1]
		last.xc = clampStart(last.q/last.weight, s.x0, s.x1-last.w)
		prev := &s.clusters[len(s.clusters)-2]
		if prev.xc+prev.w <= last.xc+1e-12 {
			break
		}
		prev.q += last.q - last.weight*prev.w
		prev.weight += last.weight
		prev.w += last.w
		prev.cells = append(prev.cells, last.cells...)
		s.clusters = s.clusters[:len(s.clusters)-1]
	}
	last := &s.clusters[len(s.clusters)-1]
	last.xc = clampStart(last.q/last.weight, s.x0, s.x1-last.w)
}

// packer incrementally legalizes cells into one region's area: Abacus
// insertions commit immediately, final coordinates are materialized once
// by finalize. Keeping the packer alive lets the spill pass put cells that
// do not fit one region into another region's remaining space without
// re-packing anything.
type packer struct {
	n       *netlist.Netlist
	rows    [][]segment
	desired map[netlist.CellID]geom.Point
	// usable reports whether the area contains any row segment.
	usable bool
}

// newPacker prepares the row segments of the allowed area.
func newPacker(n *netlist.Netlist, allowed geom.RectSet, blockages geom.RectSet) *packer {
	p := &packer{
		n:       n,
		rows:    buildSegments(n, allowed, blockages),
		desired: map[netlist.CellID]geom.Point{},
	}
	for _, segs := range p.rows {
		if len(segs) > 0 {
			p.usable = true
			break
		}
	}
	return p
}

// findBest locates the cheapest insertion point for the cell and its
// movement cost, without committing; the segment is nil when the cell fits
// nowhere in the area.
func (p *packer) findBest(id netlist.CellID) (*segment, float64) {
	n := p.n
	c := &n.Cells[id]
	rh := n.RowHeight
	want := n.Pos(id)
	wantRow := int((want.Y - rh/2 - n.Area.Ylo) / rh)
	bestCost := math.Inf(1)
	var bestSeg *segment
	for dr := 0; dr <= len(p.rows); dr++ {
		tryRows := []int{wantRow - dr}
		if dr > 0 {
			tryRows = append(tryRows, wantRow+dr)
		}
		anyRow := false
		for _, r := range tryRows {
			if r < 0 || r >= len(p.rows) {
				continue
			}
			anyRow = true
			rowCost := math.Abs(float64(r)*rh + n.Area.Ylo + rh/2 - want.Y)
			if rowCost >= bestCost {
				continue
			}
			for si := range p.rows[r] {
				seg := &p.rows[r][si]
				x, ok := seg.trialInsert(c.Width, want.X-c.Width/2)
				if !ok {
					continue
				}
				cost := rowCost + math.Abs(x+c.Width/2-want.X)
				if cost < bestCost {
					bestCost = cost
					bestSeg = seg
				}
			}
		}
		if !anyRow && dr > 0 && wantRow-dr < 0 && wantRow+dr >= len(p.rows) {
			break
		}
		if bestSeg != nil && float64(dr)*rh > bestCost {
			break
		}
	}
	return bestSeg, bestCost
}

// insert commits the cell into its best position; it reports false when
// the cell fits nowhere in the area.
func (p *packer) insert(id netlist.CellID) bool {
	seg, _ := p.findBest(id)
	if seg == nil {
		return false
	}
	want := p.n.Pos(id)
	p.desired[id] = want
	seg.insert(id, p.n.Cells[id].Width, want.X-p.n.Cells[id].Width/2)
	return true
}

// finalize materializes the cluster structures into cell coordinates and
// accumulates movement statistics.
func (p *packer) finalize(res *Result) {
	n := p.n
	rh := n.RowHeight
	for r := range p.rows {
		for si := range p.rows[r] {
			seg := &p.rows[r][si]
			for ci := range seg.clusters {
				cl := &seg.clusters[ci]
				x := cl.xc
				for _, id := range cl.cells {
					w := n.Cells[id].Width
					// Clamp against float accumulation drift past the
					// segment end (hairline movebound violations).
					if x+w > seg.x1 {
						x = seg.x1 - w
					}
					pos := geom.Point{X: x + w/2, Y: seg.rowY + rh/2}
					move := pos.DistL1(p.desired[id])
					res.Moved += move
					if move > res.MaxMove {
						res.MaxMove = move
					}
					n.SetPos(id, pos)
					x += w
				}
			}
		}
	}
}

// sortByX orders cells left-to-right by desired position (Abacus order).
func sortByX(n *netlist.Netlist, cells []netlist.CellID) []netlist.CellID {
	order := append([]netlist.CellID(nil), cells...)
	sort.Slice(order, func(i, j int) bool {
		//fbpvet:floatok exact tie-break on stored coordinates keeps the sort total
		if n.X[order[i]] != n.X[order[j]] {
			return n.X[order[i]] < n.X[order[j]]
		}
		return order[i] < order[j]
	})
	return order
}

func checkHeights(n *netlist.Netlist, cells []netlist.CellID) error {
	for _, id := range cells {
		if c := &n.Cells[id]; c.Height > n.RowHeight+1e-9 {
			return fmt.Errorf("legalize: cell %d (%s) taller than a row (%g > %g)", id, c.Name, c.Height, n.RowHeight)
		}
	}
	return nil
}

// PackableCapacities returns, per region of the decomposition, the cell
// area that row-based legalization can realistically pack (see
// packableArea). Narrow slivers (common with overlapping movebounds)
// contribute much less than their geometric area; instance generators and
// Legalize both budget against this measure.
func PackableCapacities(n *netlist.Netlist, d *region.Decomposition, blockages geom.RectSet) []float64 {
	avgW := averageWidth(n, n.MovableIDs())
	caps := make([]float64, len(d.Regions))
	for ri := range d.Regions {
		caps[ri] = packableArea(n, buildSegments(n, d.Regions[ri].Rects, blockages), avgW)
	}
	return caps
}

// averageWidth is the mean width of the given cells (0 for none).
func averageWidth(n *netlist.Netlist, cells []netlist.CellID) float64 {
	avgW := 0.0
	for _, id := range cells {
		avgW += n.Cells[id].Width
	}
	if len(cells) > 0 {
		avgW /= float64(len(cells))
	}
	return avgW
}

// packableArea is the cell area the row segments can realistically pack:
// their free length minus a per-segment end-waste allowance of 0.6
// average cell widths, times the row height.
func packableArea(n *netlist.Netlist, rows [][]segment, avgW float64) float64 {
	area := 0.0
	for _, segs := range rows {
		for _, s := range segs {
			if w := s.x1 - s.x0 - 0.6*avgW; w > 0 {
				area += w * n.RowHeight
			}
		}
	}
	return area
}

// Legalize implements §III: partition all movable cells onto the regions
// of the decomposition with the movebound-aware transportation, then
// legalize each region's cells inside the region area. Cells of different
// movebounds sharing a region are handled simultaneously; cells that do
// not fit their region (sliver fragmentation) spill into the remaining
// space of other admissible regions. The transportation is elastic: when
// the packable capacities cannot hold every cell, the cheapest full
// regions take the least overflow, and the spill pass sheds it. A chip
// without movebounds is legalized through its one-region decomposition,
// region.Decompose(n.Area, nil).
//
// The movebounds of d are the ones legalization respects: a cell whose
// movebound index d does not carry counts as unconstrained, so the
// one-region decomposition legalizes any netlist movebound-blind.
func Legalize(n *netlist.Netlist, d *region.Decomposition, opt Options) (Result, error) {
	blockages := n.FixedRects()
	movable := n.MovableIDs()
	if len(movable) == 0 {
		return Result{}, nil
	}
	if err := checkHeights(n, movable); err != nil {
		return Result{}, err
	}
	// mbOf is the movebound a cell is legalized under (see above).
	mbOf := func(id netlist.CellID) int {
		if mb := n.Cells[id].Movebound; mb < len(d.Movebounds) {
			return mb
		}
		return netlist.NoMovebound
	}
	psp := opt.Obs.StartSpan("legalize.partition")
	// Partition on *packable* capacity (see PackableCapacities): narrow
	// sliver regions contribute far less than their geometric area. Each
	// region's row segments are built once, for its packer.
	avgW := averageWidth(n, movable)
	packers := make([]*packer, len(d.Regions))
	caps := make([]float64, len(d.Regions))
	for ri := range d.Regions {
		packers[ri] = newPacker(n, d.Regions[ri].Rects, blockages)
		caps[ri] = packableArea(n, packers[ri].rows, avgW)
	}
	prob := &transport.Problem{
		Supply:   make([]float64, len(movable)),
		Capacity: caps,
		Arcs:     make([][]transport.Arc, len(movable)),
		Obs:      opt.Obs,
		Ctx:      opt.Ctx,
	}
	// sinks[mb+1] lists the regions with packable capacity that a cell of
	// movebound mb (NoMovebound = -1) may take. All cells' arcs share one
	// backing slice, sized up front so it is never regrown.
	sinks := make([][]int, len(d.Movebounds)+1)
	for i := range sinks {
		for ri := range d.Regions {
			if caps[ri] > 0 && d.Admissible(i-1, ri) {
				sinks[i] = append(sinks[i], ri)
			}
		}
	}
	numArcs := 0
	for _, id := range movable {
		numArcs += len(sinks[mbOf(id)+1])
	}
	arcs := make([]transport.Arc, 0, numArcs)
	for i, id := range movable {
		prob.Supply[i] = n.Cells[id].Size()
		pos := n.Pos(id)
		first := len(arcs)
		for _, ri := range sinks[mbOf(id)+1] {
			// Positive packable capacity implies the region has area.
			q, _ := d.Regions[ri].Rects.Nearest(pos)
			arcs = append(arcs, transport.Arc{Sink: ri, Cost: q.DistL1(pos)})
		}
		prob.Arcs[i] = arcs[first:len(arcs):len(arcs)]
	}
	sol, err := transport.Solve(prob)
	psp.End()
	if err != nil {
		return Result{}, fmt.Errorf("legalize: region partitioning: %w", err)
	}
	ksp := opt.Obs.StartSpan("legalize.pack")
	defer ksp.End()
	rounded := sol.Rounded()
	perRegion := make([][]netlist.CellID, len(d.Regions))
	for i, id := range movable {
		perRegion[rounded[i]] = append(perRegion[rounded[i]], id)
	}
	// Pack each region; cells that do not fit spill.
	var spill []netlist.CellID
	total := Result{}
	for ri, cells := range perRegion {
		if len(cells) == 0 {
			continue
		}
		if !packers[ri].usable {
			spill = append(spill, cells...)
			continue
		}
		for _, id := range sortByX(n, cells) {
			if !packers[ri].insert(id) {
				spill = append(spill, id)
			}
		}
	}
	// Spill pass: widest cells first, each into the cheapest admissible
	// region that still has room.
	sort.Slice(spill, func(a, b int) bool {
		wa, wb := n.Cells[spill[a]].Width, n.Cells[spill[b]].Width
		//fbpvet:floatok exact tie-break on stored widths keeps the sort total
		if wa != wb {
			return wa > wb
		}
		return spill[a] < spill[b]
	})
	for _, id := range spill {
		best := -1
		bestCost := math.Inf(1)
		for ri := range d.Regions {
			if !d.Admissible(mbOf(id), ri) || !packers[ri].usable {
				continue
			}
			if seg, cost := packers[ri].findBest(id); seg != nil && cost < bestCost {
				best, bestCost = ri, cost
			}
		}
		if best < 0 {
			total.Failed++
			total.FailedCells = append(total.FailedCells, id)
			continue
		}
		packers[best].insert(id)
	}
	for ri := range packers {
		packers[ri].finalize(&total)
	}
	opt.Obs.Count("legalize.cells", float64(len(movable)))
	opt.Obs.Count("legalize.spilled", float64(len(spill)))
	opt.Obs.Count("legalize.failed", float64(total.Failed))
	if total.Failed > 0 {
		return total, fmt.Errorf("legalize: %d cells fit no admissible region", total.Failed)
	}
	return total, nil
}

// VerifyNoOverlaps checks that no two movable cells overlap and no movable
// cell overlaps a fixed cell; it returns the number of overlapping pairs:
// pairs of cells, not both fixed, whose intersection has area above 1e-6.
// Used by the placer's report, certification and the experiment harness.
//
// Cells are bucketed into horizontal bands one row high (every band a
// cell's y-range touches, so fixed macros join several), and each band is
// swept in x. Two cells with a common interior point share the band of
// that point; a pair is counted only in the first band both touch.
func VerifyNoOverlaps(n *netlist.Netlist) int {
	type box struct {
		r      geom.Rect
		fixed  bool
		lo, hi int32 // first and last band the cell touches
	}
	// Band height: one row, coarsened so there are at most one band per
	// cell (plus one).
	bands := 1
	y0, bh := n.Area.Ylo, n.Area.Height()
	if h := n.Area.Height(); h > 0 && n.RowHeight > 0 {
		bands = int(math.Min(math.Ceil(h/n.RowHeight), float64(n.NumCells()+1)))
		bands = max(bands, 1)
		bh = h / float64(bands)
	}
	band := func(y float64) int32 {
		if bh <= 0 {
			return 0
		}
		b := math.Floor((y - y0) / bh)
		if !(b > 0) { // also NaN
			return 0
		}
		if b >= float64(bands-1) {
			return int32(bands - 1)
		}
		return int32(b)
	}
	boxes := make([]box, n.NumCells())
	start := make([]int32, bands+1)
	for i := range n.Cells {
		r := n.CellRect(netlist.CellID(i))
		b := box{r: r, fixed: n.Cells[i].Fixed, lo: band(r.Ylo), hi: band(r.Yhi)}
		boxes[i] = b
		for k := b.lo; k <= b.hi; k++ {
			start[k+1]++
		}
	}
	for k := 0; k < bands; k++ {
		start[k+1] += start[k]
	}
	members := make([]int32, start[bands])
	fill := append([]int32(nil), start[:bands]...)
	for i, b := range boxes {
		for k := b.lo; k <= b.hi; k++ {
			members[fill[k]] = int32(i)
			fill[k]++
		}
	}
	overlaps := 0
	for k := int32(0); k < int32(bands); k++ {
		idx := members[start[k]:start[k+1]]
		// Plain comparisons, as sort.Slice's less used: cmp.Compare's NaN
		// ordering costs this sort about a tenth of its time.
		slices.SortFunc(idx, func(a, b int32) int {
			xa, xb := boxes[a].r.Xlo, boxes[b].r.Xlo
			switch {
			case xa < xb:
				return -1
			case xa > xb:
				return 1
			}
			return 0
		})
		for a := 0; a < len(idx); a++ {
			ba := &boxes[idx[a]]
			for b := a + 1; b < len(idx); b++ {
				bb := &boxes[idx[b]]
				if bb.r.Xlo >= ba.r.Xhi-1e-9 {
					break
				}
				if (ba.fixed && bb.fixed) || max(ba.lo, bb.lo) != k {
					continue
				}
				ir := ba.r.Intersect(bb.r)
				if !ir.Empty() && ir.Area() > 1e-6 {
					overlaps++
				}
			}
		}
	}
	return overlaps
}
