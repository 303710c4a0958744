// Package gen synthesizes placement instances with the published
// characteristics of the paper's testbeds: industrial-style chips with
// local netlist structure, boundary pads and macro blockages (Tables II
// and III, scaled), movebound scenarios (inclusive/exclusive, overlapping,
// nested "from flattened hierarchy"), and ISPD-2006-style mixed-size
// instances (Table VII). The real chips are proprietary; these synthetic
// equivalents exercise the same code paths and preserve the comparison
// shape (who wins, by what factor).
//
// Generation is fully deterministic given the spec's Seed.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"fbplace/internal/geom"
	"fbplace/internal/legalize"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// MoveboundSpec describes one generated movebound.
type MoveboundSpec struct {
	// Kind is inclusive or exclusive.
	Kind region.Kind
	// CellFraction is the fraction of all cells assigned to this
	// movebound.
	CellFraction float64
	// Density is the target cell density inside the movebound area
	// (the "max mb. dens" column of Table III).
	Density float64
	// NestedIn, when >= 0, places this movebound's area inside the area
	// of the referenced movebound ("(F)" — flattened hierarchy).
	NestedIn int
	// Overlap requests that the area overlap the previous movebound
	// ("(O)" instances).
	Overlap bool
	// LShaped makes the area non-convex: two overlapping rectangles
	// forming an L. The paper's movebounds are explicitly allowed to be
	// non-convex; only non-nested inclusive movebounds use this shape.
	LShaped bool
}

// ChipSpec describes a synthetic chip.
type ChipSpec struct {
	Name     string
	NumCells int
	// Utilization is total movable cell area / free chip area. Default 0.55.
	Utilization float64
	// Aspect is width/height. Default 1.
	Aspect float64
	// NumMacros fixed macro blocks. Default 0.
	NumMacros int
	// PadCount overrides the number of boundary pads (default 4*sqrt(n)).
	PadCount int
	// AvgPins sets the average net size (default 2.7 pins).
	AvgPins float64
	// Movebounds to generate.
	Movebounds []MoveboundSpec
	Seed       int64
}

// Instance is a generated chip: netlist plus movebounds.
type Instance struct {
	Spec       ChipSpec
	N          *netlist.Netlist
	Movebounds []region.Movebound
	// exclBox confines each exclusive movebound to its own chip tile, so
	// disjointness survives the feasibility growth loop.
	exclBox map[int]geom.Rect
}

// SpecError reports a structurally invalid ChipSpec field.
type SpecError struct {
	// Field is the ChipSpec field name, Reason the constraint it violates.
	Field, Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("gen: invalid ChipSpec.%s: %s", e.Field, e.Reason)
}

// Validate checks the spec for invalid values. Zero values are valid (they
// select the documented defaults).
func (s *ChipSpec) Validate() error {
	if s.NumCells <= 0 {
		return &SpecError{Field: "NumCells", Reason: fmt.Sprintf("must be positive, got %d", s.NumCells)}
	}
	if s.Utilization < 0 || s.Utilization > 1 {
		return &SpecError{Field: "Utilization", Reason: fmt.Sprintf("%g outside (0, 1]", s.Utilization)}
	}
	if s.Aspect < 0 {
		return &SpecError{Field: "Aspect", Reason: fmt.Sprintf("negative aspect ratio %g", s.Aspect)}
	}
	if s.NumMacros < 0 {
		return &SpecError{Field: "NumMacros", Reason: fmt.Sprintf("negative macro count %d", s.NumMacros)}
	}
	if s.PadCount < 0 {
		return &SpecError{Field: "PadCount", Reason: fmt.Sprintf("negative pad count %d", s.PadCount)}
	}
	if s.AvgPins < 0 || (s.AvgPins > 0 && s.AvgPins < 2) {
		return &SpecError{Field: "AvgPins", Reason: fmt.Sprintf("average net size %g below 2 pins", s.AvgPins)}
	}
	for i, mb := range s.Movebounds {
		if mb.CellFraction < 0 || mb.CellFraction > 1 {
			return &SpecError{
				Field:  fmt.Sprintf("Movebounds[%d].CellFraction", i),
				Reason: fmt.Sprintf("%g outside [0, 1]", mb.CellFraction),
			}
		}
		if mb.Density < 0 || mb.Density > 1 {
			return &SpecError{
				Field:  fmt.Sprintf("Movebounds[%d].Density", i),
				Reason: fmt.Sprintf("%g outside [0, 1]", mb.Density),
			}
		}
		if mb.NestedIn >= i {
			return &SpecError{
				Field:  fmt.Sprintf("Movebounds[%d].NestedIn", i),
				Reason: fmt.Sprintf("references movebound %d, must reference an earlier one", mb.NestedIn),
			}
		}
	}
	return nil
}

// Chip generates the instance for a spec.
func Chip(spec ChipSpec) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Utilization == 0 {
		spec.Utilization = 0.55
	}
	if spec.Aspect == 0 {
		spec.Aspect = 1
	}
	if spec.AvgPins == 0 {
		spec.AvgPins = 2.7
	}
	rng := rand.New(rand.NewSource(spec.Seed))

	// Cell sizes: widths 1..3 units, height = 1 row.
	widths := make([]float64, spec.NumCells)
	totalArea := 0.0
	for i := range widths {
		w := 1.0 + float64(rng.Intn(3))*0.5 // 1, 1.5, 2
		if rng.Intn(20) == 0 {
			w = 3 + 2*rng.Float64() // occasional wide cell
		}
		widths[i] = w
		totalArea += w
	}
	// Macro area joins the area budget.
	macroArea := 0.0
	macroSide := 0.0
	if spec.NumMacros > 0 {
		chipAreaEstimate := totalArea / spec.Utilization
		macroSide = math.Max(2, math.Floor(math.Sqrt(chipAreaEstimate)*0.08))
		macroArea = float64(spec.NumMacros) * macroSide * macroSide
	}
	chipArea := (totalArea + macroArea) / spec.Utilization
	height := math.Ceil(math.Sqrt(chipArea / spec.Aspect))
	width := math.Ceil(chipArea / height)
	chip := geom.Rect{Xlo: 0, Ylo: 0, Xhi: width, Yhi: height}
	n := netlist.New(chip, 1)

	// Ideal positions on a locality grid: cell index -> (gx, gy) cell of
	// a sqrt-ish lattice covering the chip. Nets are drawn between cells
	// close in lattice space, which gives the netlist the local structure
	// real designs have without revealing positions to the placer.
	nx := int(math.Ceil(math.Sqrt(float64(spec.NumCells) * spec.Aspect)))
	if nx < 1 {
		nx = 1
	}
	ny := (spec.NumCells + nx - 1) / nx
	ideal := make([]geom.Point, spec.NumCells)
	for i := 0; i < spec.NumCells; i++ {
		gx, gy := i%nx, i/nx
		ideal[i] = geom.Point{
			X: (float64(gx) + 0.5 + 0.3*rng.NormFloat64()) / float64(nx) * width,
			Y: (float64(gy) + 0.5 + 0.3*rng.NormFloat64()) / float64(ny) * height,
		}
		ideal[i] = chip.ClampPoint(ideal[i])
	}

	for i := 0; i < spec.NumCells; i++ {
		n.AddCell(netlist.Cell{
			Name:      fmt.Sprintf("c%d", i),
			Width:     widths[i],
			Height:    1,
			Movebound: netlist.NoMovebound,
		})
	}

	// Macros: fixed blocks on a coarse lattice, away from the boundary.
	if spec.NumMacros > 0 {
		cols := int(math.Ceil(math.Sqrt(float64(spec.NumMacros))))
		for m := 0; m < spec.NumMacros; m++ {
			fx := width * (float64(m%cols) + 1) / (float64(cols) + 1)
			fy := height * (float64(m/cols) + 1) / (float64(cols) + 1)
			id := n.AddCell(netlist.Cell{
				Name:  fmt.Sprintf("macro%d", m),
				Width: macroSide, Height: macroSide,
				Fixed:     true,
				Movebound: netlist.NoMovebound,
			})
			n.SetPos(id, chip.ClampPoint(geom.Point{X: fx, Y: fy}))
		}
	}

	// Nets: per cell, draw to lattice neighbors; net sizes 2..6 with the
	// requested average.
	numNets := int(float64(spec.NumCells) * 1.15)
	neighbor := func(i int) int {
		for tries := 0; tries < 8; tries++ {
			dx := rng.Intn(5) - 2
			dy := rng.Intn(5) - 2
			j := i + dx + dy*nx
			if j >= 0 && j < spec.NumCells && j != i {
				return j
			}
		}
		return (i + 1) % spec.NumCells
	}
	for e := 0; e < numNets; e++ {
		src := rng.Intn(spec.NumCells)
		pins := []netlist.Pin{{Cell: netlist.CellID(src)}}
		// Degree distribution: mostly 2, tail up to 6; 8% long-range nets.
		deg := 2
		switch r := rng.Float64(); {
		case r < 0.62:
			deg = 2
		case r < 0.82:
			deg = 3
		case r < 0.92:
			deg = 4
		case r < 0.97:
			deg = 5
		default:
			deg = 6
		}
		longRange := rng.Float64() < 0.08
		seen := map[int]bool{src: true}
		for len(pins) < deg {
			var j int
			if longRange {
				j = rng.Intn(spec.NumCells)
			} else {
				j = neighbor(src)
			}
			if seen[j] {
				j = rng.Intn(spec.NumCells)
			}
			if seen[j] {
				break
			}
			seen[j] = true
			pins = append(pins, netlist.Pin{Cell: netlist.CellID(j)})
		}
		if len(pins) >= 2 {
			n.AddNet(netlist.Net{Name: fmt.Sprintf("n%d", e), Pins: pins})
		}
	}
	// Pads on the boundary connected to cells whose ideal position is
	// near that boundary point.
	pads := spec.PadCount
	if pads == 0 {
		pads = int(4 * math.Sqrt(float64(spec.NumCells)))
	}
	for p := 0; p < pads; p++ {
		t := float64(p) / float64(pads) * 4
		var pos geom.Point
		switch int(t) {
		case 0:
			pos = geom.Point{X: (t - 0) * width, Y: 0}
		case 1:
			pos = geom.Point{X: width, Y: (t - 1) * height}
		case 2:
			pos = geom.Point{X: (3 - t) * width, Y: height}
		default:
			pos = geom.Point{X: 0, Y: (4 - t) * height}
		}
		// Nearest-ish cell in ideal space among a sample.
		best, bestD := 0, math.Inf(1)
		for s := 0; s < 24; s++ {
			j := rng.Intn(spec.NumCells)
			if d := ideal[j].DistL1(pos); d < bestD {
				best, bestD = j, d
			}
		}
		n.AddNet(netlist.Net{
			Name: fmt.Sprintf("pad%d", p),
			Pins: []netlist.Pin{{Cell: netlist.CellID(best)}, {Cell: -1, Offset: pos}},
		})
	}

	inst := &Instance{Spec: spec, N: n}
	if err := genMovebounds(inst, ideal, rng); err != nil {
		return nil, err
	}
	if err := n.Validate(len(inst.Movebounds)); err != nil {
		return nil, fmt.Errorf("gen: %w", err)
	}
	return inst, nil
}

// genMovebounds creates movebound areas and assigns cells. Cells are
// assigned by locality (contiguous lattice blocks), so movebound cells are
// connected to each other — like real voltage islands or flattened macros.
func genMovebounds(inst *Instance, ideal []geom.Point, rng *rand.Rand) error {
	spec := inst.Spec
	n := inst.N
	chip := n.Area
	if len(spec.Movebounds) == 0 {
		return nil
	}
	numCells := spec.NumCells
	// Cells are assigned to movebounds as contiguous lattice blocks (so a
	// movebound's cells are strongly connected, like a flattened macro),
	// with block starts strided across the whole index space so the
	// movebounds spread over the chip instead of piling onto one corner.
	stride := numCells / len(spec.Movebounds)
	type placedMB struct {
		rect geom.Rect
	}
	var placed []placedMB
	// Exclusive movebounds get one tile each of a coarse chip grid; they
	// stay inside it forever, which guarantees pairwise disjointness.
	numExcl := 0
	for _, ms := range spec.Movebounds {
		if ms.Kind == region.Exclusive {
			numExcl++
		}
	}
	inst.exclBox = map[int]geom.Rect{}
	exclCols := int(math.Ceil(math.Sqrt(float64(numExcl))))
	exclRows := 0
	if numExcl > 0 {
		exclRows = (numExcl + exclCols - 1) / exclCols
	}
	exclSeen := 0
	for mi, ms := range spec.Movebounds {
		count := int(ms.CellFraction * float64(numCells))
		if count < 1 {
			count = 1
		}
		start := mi * stride
		if count > stride {
			count = stride
		}
		if start+count > numCells {
			count = numCells - start
			if count <= 0 {
				return fmt.Errorf("gen: movebound cell fractions exceed 1")
			}
		}
		cellArea := 0.0
		for i := start; i < start+count; i++ {
			cellArea += n.Cells[i].Size()
		}
		density := ms.Density
		if density == 0 {
			density = 0.7
		}
		area := cellArea / density
		// Shape the area around the centroid of the assigned cells'
		// ideal positions so the movebound does not fight the netlist.
		var cx, cy float64
		for i := start; i < start+count; i++ {
			cx += ideal[i].X
			cy += ideal[i].Y
		}
		cx /= float64(count)
		cy /= float64(count)
		side := math.Sqrt(area)
		w := side * (0.8 + 0.4*rng.Float64())
		h := area / w
		// Minimum extent: regions narrower than a few rows cannot be
		// packed by row-based legalization.
		const minDim = 6.0
		if w < minDim {
			w = minDim
		}
		if h < minDim {
			h = minDim
		}
		var rect geom.Rect
		switch {
		case ms.Kind == region.Exclusive:
			tx, ty := exclSeen%exclCols, exclSeen/exclCols
			exclSeen++
			tile := geom.Rect{
				Xlo: chip.Xlo + chip.Width()*float64(tx)/float64(exclCols),
				Ylo: chip.Ylo + chip.Height()*float64(ty)/float64(exclRows),
				Xhi: chip.Xlo + chip.Width()*float64(tx+1)/float64(exclCols),
				Yhi: chip.Ylo + chip.Height()*float64(ty+1)/float64(exclRows),
			}
			// Keep a margin so neighbors never touch, and snap the tile
			// inward to integers so row-snapped rects stay inside it.
			tile = tile.Expand(-0.04 * math.Min(tile.Width(), tile.Height()))
			tile = geom.Rect{
				Xlo: math.Ceil(tile.Xlo), Ylo: math.Ceil(tile.Ylo),
				Xhi: math.Floor(tile.Xhi), Yhi: math.Floor(tile.Yhi),
			}
			if w > tile.Width()*0.9 {
				w = tile.Width() * 0.9
				h = area / w
			}
			if h > tile.Height()*0.9 {
				h = tile.Height() * 0.9
				w = area / h
			}
			c := tile.Center()
			rect = fitInto(geom.Rect{Xlo: c.X - w/2, Ylo: c.Y - h/2, Xhi: c.X + w/2, Yhi: c.Y + h/2}, tile)
			inst.exclBox[mi] = tile
		case ms.NestedIn >= 0 && ms.NestedIn < len(placed):
			outer := placed[ms.NestedIn].rect
			// Shrink to fit inside the outer rect.
			if w > outer.Width()*0.9 {
				w = outer.Width() * 0.9
				h = area / w
			}
			if h > outer.Height()*0.9 {
				h = outer.Height() * 0.9
				w = area / h
			}
			x0 := outer.Xlo + (outer.Width()-w)*rng.Float64()
			y0 := outer.Ylo + (outer.Height()-h)*rng.Float64()
			rect = geom.Rect{Xlo: x0, Ylo: y0, Xhi: x0 + w, Yhi: y0 + h}
		case ms.Overlap && len(placed) > 0:
			prev := placed[len(placed)-1].rect
			x0 := prev.Xlo + prev.Width()*0.5
			y0 := prev.Ylo + prev.Height()*0.5
			rect = geom.Rect{Xlo: x0, Ylo: y0, Xhi: x0 + w, Yhi: y0 + h}
		default:
			rect = geom.Rect{Xlo: cx - w/2, Ylo: cy - h/2, Xhi: cx + w/2, Yhi: cy + h/2}
		}
		// Keep the rect inside the chip.
		rect = fitInto(rect, chip)
		mbArea := geom.RectSet{rect}
		if ms.LShaped && ms.Kind == region.Inclusive && ms.NestedIn < 0 {
			// Split the budgeted area into two overlapping rectangles
			// forming an L: the vertical bar keeps ~60% of the width, the
			// horizontal bar extends right from the lower part.
			vBar := geom.Rect{Xlo: rect.Xlo, Ylo: rect.Ylo, Xhi: rect.Xlo + rect.Width()*0.6, Yhi: rect.Yhi}
			hBar := geom.Rect{
				Xlo: rect.Xlo, Ylo: rect.Ylo,
				Xhi: rect.Xlo + rect.Width()*1.3, Yhi: rect.Ylo + rect.Height()*0.55,
			}
			mbArea = geom.RectSet{fitInto(vBar, chip), fitInto(hBar, chip)}
			rect = mbArea.BBox()
		}
		placed = append(placed, placedMB{rect: rect})
		inst.Movebounds = append(inst.Movebounds, region.Movebound{
			Name: fmt.Sprintf("mb%d", mi),
			Kind: ms.Kind,
			Area: mbArea,
		})
		for i := start; i < start+count; i++ {
			n.Cells[i].Movebound = mi
		}
	}
	// Movebound blocks hold standard cells only: swap wide cells out of
	// the movebound ranges (wide cells cannot pack into narrow region
	// slivers, and real flattened macros consist of standard cells).
	swapPool := 0
	for i := range inst.N.Cells[:numCells] {
		if inst.N.Cells[i].Movebound == netlist.NoMovebound || inst.N.Cells[i].Width <= 2.5 {
			continue
		}
		for ; swapPool < numCells; swapPool++ {
			cand := &inst.N.Cells[swapPool]
			if cand.Movebound == netlist.NoMovebound && cand.Width <= 2.5 {
				break
			}
		}
		if swapPool < numCells {
			inst.N.Cells[i].Width, inst.N.Cells[swapPool].Width = inst.N.Cells[swapPool].Width, inst.N.Cells[i].Width
			swapPool++
		} else {
			inst.N.Cells[i].Width = 2
		}
	}
	// Exclusive movebounds must not overlap anything else: separate them.
	if err := separateExclusives(inst); err != nil {
		return err
	}
	return repairFeasibility(inst)
}

// repairFeasibility grows movebound areas until the instance passes the
// Theorem-2 feasibility check with headroom (capacities at density 0.90,
// below the 0.97 the experiments run at). Blockage overlap, inclusive
// overlap and nesting all reduce effective capacity in ways the sizing
// heuristic cannot see locally, so this closes the loop with the real
// check.
func repairFeasibility(inst *Instance) error {
	chip := inst.N.Area
	blockages := inst.N.FixedRects()
	nested := make([]int, len(inst.Movebounds))
	for i := range nested {
		nested[i] = -1
		if i < len(inst.Spec.Movebounds) {
			nested[i] = inst.Spec.Movebounds[i].NestedIn
		}
	}
	// Cell area per movebound (fixed; growth only changes areas).
	mbCells := make([]float64, len(inst.Movebounds))
	for i := range inst.N.Cells {
		c := &inst.N.Cells[i]
		if !c.Fixed && c.Movebound != netlist.NoMovebound {
			mbCells[c.Movebound] += c.Size()
		}
	}
	for attempt := 0; attempt < 80; attempt++ {
		snapToRows(inst)
		norm, err := region.Normalize(chip, inst.Movebounds)
		if err == nil {
			d := region.Decompose(chip, norm)
			// Feasibility is checked against *packable* capacity (what
			// row-based legalization can actually use; sliver regions
			// count for much less than their geometric area), with 7%
			// headroom on top.
			caps := legalize.PackableCapacities(inst.N, d, blockages)
			for i := range caps {
				caps[i] *= 0.93
			}
			if rep := region.CheckFeasibility(inst.N, d, caps); rep.Feasible {
				return nil
			}
		}
		// Grow selectively: movebounds whose own cells exceed ~85% of
		// their effective capacity (every 5th attempt, grow everything —
		// subset deficits of overlapping groups are not visible
		// per-movebound). Selective growth keeps exclusive movebounds
		// small enough to stay separable.
		growAll := attempt%5 == 4 || err != nil
		for i := range inst.Movebounds {
			if !growAll {
				capa := effectiveCapacity(inst, i, blockages)
				if mbCells[i] <= 0.85*capa {
					continue
				}
			}
			for ri, r := range inst.Movebounds[i].Area {
				g := r.Expand(0.04 * (r.Width() + r.Height()) / 2)
				g = fitInto(g, chip)
				if box, ok := inst.exclBox[i]; ok {
					g = fitInto(g, box)
				}
				if p := nested[i]; p >= 0 {
					g = g.Intersect(inst.Movebounds[p].Area[0])
					if g.Empty() {
						g = r
					}
				}
				inst.Movebounds[i].Area[ri] = g
			}
		}
		if err := separateExclusives(inst); err != nil {
			return err
		}
	}
	return fmt.Errorf("gen: could not make %q feasible after growing movebounds", inst.Spec.Name)
}

// effectiveCapacity estimates the capacity available to one movebound's
// own cells: its area minus blockages, minus any exclusive areas of other
// movebounds carved out of it.
func effectiveCapacity(inst *Instance, mi int, blockages geom.RectSet) float64 {
	area := inst.Movebounds[mi].Area
	var carve geom.RectSet
	carve = append(carve, blockages...)
	for j := range inst.Movebounds {
		if j != mi && inst.Movebounds[j].Kind == region.Exclusive {
			carve = append(carve, inst.Movebounds[j].Area...)
		}
	}
	total := 0.0
	for _, r := range area {
		for _, f := range (geom.RectSet{r}).Subtract(carve) {
			total += f.Area()
		}
	}
	return total * 0.90
}

// snapToRows expands every movebound rectangle outward to integer (row and
// site) boundaries: row-based legalization can only use full-height row
// segments, so fractional movebound edges would silently lose capacity.
// Outward snapping preserves nesting (monotone) and feasibility.
func snapToRows(inst *Instance) {
	chip := inst.N.Area
	for i := range inst.Movebounds {
		for k, r := range inst.Movebounds[i].Area {
			s := geom.Rect{
				Xlo: math.Floor(r.Xlo), Ylo: math.Floor(r.Ylo),
				Xhi: math.Ceil(r.Xhi), Yhi: math.Ceil(r.Yhi),
			}
			inst.Movebounds[i].Area[k] = s.Intersect(chip)
		}
	}
}

// fitInto translates (and if needed shrinks) r to lie inside the chip.
func fitInto(r geom.Rect, chip geom.Rect) geom.Rect {
	if r.Width() > chip.Width() {
		r.Xlo, r.Xhi = chip.Xlo, chip.Xhi
	}
	if r.Height() > chip.Height() {
		r.Ylo, r.Yhi = chip.Ylo, chip.Yhi
	}
	if r.Xlo < chip.Xlo {
		r = r.Translate(geom.Point{X: chip.Xlo - r.Xlo})
	}
	if r.Xhi > chip.Xhi {
		r = r.Translate(geom.Point{X: chip.Xhi - r.Xhi})
	}
	if r.Ylo < chip.Ylo {
		r = r.Translate(geom.Point{Y: chip.Ylo - r.Ylo})
	}
	if r.Yhi > chip.Yhi {
		r = r.Translate(geom.Point{Y: chip.Yhi - r.Yhi})
	}
	return r
}

// separateExclusives nudges exclusive movebound rectangles until they
// overlap no other movebound (region.Normalize would reject them
// otherwise). Overlapping specs combined with exclusive kinds are the
// "infeasible in the exclusive case" situations of §V; the generator
// resolves them geometrically so exclusive instances stay feasible.
func separateExclusives(inst *Instance) error {
	chip := inst.N.Area
	for i := range inst.Movebounds {
		if inst.Movebounds[i].Kind != region.Exclusive {
			continue
		}
		for attempt := 0; attempt < 200; attempt++ {
			conflict := false
			for j := range inst.Movebounds {
				if i == j {
					continue
				}
				if inst.Movebounds[i].Area.Overlaps(inst.Movebounds[j].Area) {
					conflict = true
					break
				}
			}
			if !conflict {
				break
			}
			// Slide the rect deterministically around the chip.
			r := inst.Movebounds[i].Area[0]
			step := math.Max(1, math.Floor(chip.Width()/40))
			r = r.Translate(geom.Point{X: step})
			if r.Xhi > chip.Xhi {
				r = r.Translate(geom.Point{X: chip.Xlo - r.Xlo, Y: math.Max(1, math.Floor(chip.Height()/40))})
			}
			if r.Yhi > chip.Yhi {
				r = r.Translate(geom.Point{Y: chip.Ylo - r.Ylo})
			}
			inst.Movebounds[i].Area[0] = fitInto(r, chip)
		}
	}
	return nil
}

// LoadMix returns count chip specs for service load tests: sizes cycle
// through a small/medium ladder, every third instance carries an inclusive
// movebound, and each spec gets a distinct deterministic seed derived from
// seed. The specs are small enough that a worker pool can churn through
// dozens of them in seconds, yet still multi-level.
func LoadMix(count int, seed int64) []ChipSpec {
	sizes := []int{300, 600, 1200, 2000}
	specs := make([]ChipSpec, count)
	for i := range specs {
		specs[i] = ChipSpec{
			Name:     fmt.Sprintf("load-%03d", i),
			NumCells: sizes[i%len(sizes)],
			Seed:     seed + int64(i)*7919,
		}
		if i%3 == 2 {
			specs[i].Movebounds = []MoveboundSpec{{
				Kind: region.Inclusive, CellFraction: 0.2, Density: 0.8, NestedIn: -1,
			}}
		}
	}
	return specs
}

// SoakMix is the chaos-soak variant of LoadMix: smaller instances at
// higher variety (soaks run many jobs under tight budgets and fault
// injection), with every seventh spec repeating an earlier one verbatim
// (cache and single-flight traffic) and every ninth an oversized
// instance that admission control should reject under a tight memory
// budget rather than let it crush the process.
func SoakMix(count int, seed int64) []ChipSpec {
	sizes := []int{300, 450, 700, 1000, 1400}
	specs := make([]ChipSpec, count)
	for i := range specs {
		k := i
		if i%7 == 6 && i >= 3 {
			k = i - 3 // verbatim duplicate of a recent spec
		}
		specs[i] = ChipSpec{
			Name:     fmt.Sprintf("soak-%03d", k),
			NumCells: sizes[k%len(sizes)],
			Seed:     seed + int64(k)*7919,
		}
		if k%4 == 1 {
			specs[i].Movebounds = []MoveboundSpec{{
				Kind: region.Inclusive, CellFraction: 0.2, Density: 0.8, NestedIn: -1,
			}}
		}
		if i%9 == 4 {
			// Over-budget bait: far past any sane soak budget, so the run
			// exercises the structured rejection path, not the placer.
			specs[i] = ChipSpec{
				Name:     fmt.Sprintf("soak-big-%03d", i),
				NumCells: 60000,
				Seed:     seed + int64(i)*7919,
			}
		}
	}
	return specs
}
