package plot

import (
	"bytes"
	"strings"
	"testing"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

func TestSVGBasics(t *testing.T) {
	n := netlist.New(geom.Rect{Xhi: 100, Yhi: 50}, 1)
	a := n.AddCell(netlist.Cell{Width: 2, Height: 1, Movebound: 0})
	n.SetPos(a, geom.Point{X: 10, Y: 10})
	m := n.AddCell(netlist.Cell{Width: 10, Height: 10, Fixed: true})
	n.SetPos(m, geom.Point{X: 50, Y: 25})
	mbs := []region.Movebound{
		{Name: "M", Kind: region.Exclusive, Area: geom.RectSet{{Xlo: 0, Ylo: 0, Xhi: 20, Yhi: 20}}},
	}
	var buf bytes.Buffer
	if err := SVG(&buf, n, mbs, Options{Title: "test"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "stroke-dasharray", "test", "width=\"1024\""} {
		if !strings.Contains(out, want) {
			t.Fatalf("SVG missing %q", want)
		}
	}
	// 1 background + 1 movebound + 2 cells = 4 rects.
	if got := strings.Count(out, "<rect"); got != 4 {
		t.Fatalf("rect count = %d, want 4", got)
	}
	// Aspect: height = 50/100 * 1024 = 512.
	if !strings.Contains(out, `height="512"`) {
		t.Fatalf("height wrong: %s", out[:120])
	}
}

func TestSVGEmptyChipRejected(t *testing.T) {
	n := netlist.New(geom.Rect{}, 1)
	var buf bytes.Buffer
	if err := SVG(&buf, n, nil, Options{}); err == nil {
		t.Fatal("empty chip accepted")
	}
}

func TestSVGYAxisFlipped(t *testing.T) {
	// A cell at the chip TOP must appear near SVG y=0.
	n := netlist.New(geom.Rect{Xhi: 100, Yhi: 100}, 1)
	a := n.AddCell(netlist.Cell{Width: 4, Height: 4})
	n.SetPos(a, geom.Point{X: 50, Y: 98})
	var buf bytes.Buffer
	if err := SVG(&buf, n, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	// Cell rect y = (100 - (98+2)) * 10.24 = 0, width 4 * 10.24.
	if !strings.Contains(buf.String(), `y="0.00" width="40.96"`) {
		t.Fatalf("top cell not at svg y=0: %s", buf.String())
	}
}
