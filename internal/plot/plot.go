// Package plot renders placements as SVG: the chip outline, fixed macros,
// movable cells colored by movebound, and movebound area outlines.
// Placement debugging is visual work; cmd/fbplace exposes this through the
// -svg flag.
package plot

import (
	"bufio"
	"fmt"
	"io"

	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// palette holds visually distinct fills for movebound classes.
var palette = []string{
	"#4477aa", "#ee6677", "#228833", "#ccbb44",
	"#66ccee", "#aa3377", "#dd7733", "#44aa99",
	"#99437a", "#777733", "#88ccaa", "#bb5566",
}

// widthPx is the image width in pixels; the height follows the chip's
// aspect ratio.
const widthPx = 1024

// Options tunes the rendering.
type Options struct {
	// Title is printed in the image corner.
	Title string
}

// SVG writes the placement as an SVG image.
func SVG(w io.Writer, n *netlist.Netlist, mbs []region.Movebound, opt Options) error {
	chip := n.Area
	if chip.Width() <= 0 || chip.Height() <= 0 {
		return fmt.Errorf("plot: empty chip area")
	}
	scale := float64(widthPx) / chip.Width()
	heightPx := chip.Height() * scale
	bw := bufio.NewWriter(w)

	// SVG y grows downward; chip y grows upward: flip.
	x := func(v float64) float64 { return (v - chip.Xlo) * scale }
	y := func(v float64) float64 { return heightPx - (v-chip.Ylo)*scale }

	fmt.Fprintf(bw, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%.0f" viewBox="0 0 %d %.0f">`+"\n",
		widthPx, heightPx, widthPx, heightPx)
	fmt.Fprintf(bw, `<rect x="0" y="0" width="%d" height="%.0f" fill="#fbfbf7" stroke="#333" stroke-width="1"/>`+"\n",
		widthPx, heightPx)

	// Movebound areas first (under the cells).
	for mi, m := range mbs {
		color := palette[mi%len(palette)]
		for _, r := range m.Area {
			dash := ""
			if m.Kind == region.Exclusive {
				dash = ` stroke-dasharray="6,3"`
			}
			fmt.Fprintf(bw, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="0.12" stroke="%s" stroke-width="1.5"%s/>`+"\n",
				x(r.Xlo), y(r.Yhi), r.Width()*scale, r.Height()*scale, color, color, dash)
		}
	}

	// Cells: fixed macros dark gray, movable colored by movebound.
	for i := range n.Cells {
		c := &n.Cells[i]
		r := n.CellRect(netlist.CellID(i))
		fill := "#9a9a9a"
		opacity := 0.85
		if !c.Fixed {
			if c.Movebound == netlist.NoMovebound {
				fill = "#556"
				opacity = 0.55
			} else {
				fill = palette[c.Movebound%len(palette)]
			}
		}
		fmt.Fprintf(bw, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" fill-opacity="%.2f"/>`+"\n",
			x(r.Xlo), y(r.Yhi), r.Width()*scale, r.Height()*scale, fill, opacity)
	}
	if opt.Title != "" {
		fmt.Fprintf(bw, `<text x="8" y="18" font-family="monospace" font-size="14" fill="#222">%s</text>`+"\n", opt.Title)
	}
	fmt.Fprintln(bw, `</svg>`)
	return bw.Flush()
}
