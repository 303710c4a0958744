package bookshelf

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbplace/internal/gen"
	"fbplace/internal/netlist"
)

const nodesSample = `UCLA nodes 1.0
# comment
NumNodes : 3
NumTerminals : 1
	a 2 1
	b 1.5 1
	pad0 1 1 terminal
`

const netsSample = `UCLA nets 1.0
NumNets : 2
NumPins : 4
NetDegree : 2 netA
	a I : 0.5 0
	b O : 0 0
NetDegree : 2
	b I : 0 0
	pad0 I : 0 0
`

const plSample = `UCLA pl 1.0
a 2 3 : N
b 5 3 : N
pad0 0 0 : N /FIXED
`

const sclSample = `UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
 Coordinate : 0
 Height : 1
 Sitewidth : 1
 SubrowOrigin : 0 NumSites : 10
End
CoreRow Horizontal
 Coordinate : 1
 Height : 1
 Sitewidth : 1
 SubrowOrigin : 0 NumSites : 10
End
`

func TestReadSample(t *testing.T) {
	n, err := Read(strings.NewReader(nodesSample), strings.NewReader(netsSample),
		strings.NewReader(plSample), strings.NewReader(sclSample))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumCells() != 3 {
		t.Fatalf("cells = %d", n.NumCells())
	}
	if n.NumNets() != 2 {
		t.Fatalf("nets = %d", n.NumNets())
	}
	// Chip from the two rows: [0,10] x [0,2].
	if n.Area.Xhi != 10 || n.Area.Yhi != 2 {
		t.Fatalf("area = %v", n.Area)
	}
	if n.RowHeight != 1 {
		t.Fatalf("row height = %v", n.RowHeight)
	}
	// Cell "a": lower-left (2,3), size 2x1 -> center (3, 3.5).
	if n.X[0] != 3 || n.Y[0] != 3.5 {
		t.Fatalf("a at (%g,%g)", n.X[0], n.Y[0])
	}
	if !n.Cells[2].Fixed {
		t.Fatal("terminal not fixed")
	}
	// Pin offset preserved.
	if n.Nets[0].Pins[0].Offset.X != 0.5 {
		t.Fatalf("offset = %v", n.Nets[0].Pins[0].Offset)
	}
}

func TestReadWithoutSCLDerivesArea(t *testing.T) {
	n, err := Read(strings.NewReader(nodesSample), strings.NewReader(netsSample),
		strings.NewReader(plSample), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Bounding box of placed nodes: x from 0 (pad) to 6.5 (b at 5 + 1.5).
	if n.Area.Xlo != 0 || math.Abs(n.Area.Xhi-6.5) > 1e-9 {
		t.Fatalf("derived area = %v", n.Area)
	}
}

func TestReadRejectsUnknownNode(t *testing.T) {
	bad := "UCLA nets 1.0\nNetDegree : 1\n\tghost I : 0 0\n"
	_, err := Read(strings.NewReader(nodesSample), strings.NewReader(bad),
		strings.NewReader(plSample), nil)
	if err == nil {
		t.Fatal("unknown node accepted")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.File != "nets" || pe.Line != 3 {
		t.Fatalf("position = %s:%d, want nets:3", pe.File, pe.Line)
	}
}

// TestReadRejectsBadInput: every malformed stream must be reported with a
// structured ParseError naming the stream kind and 1-based line.
func TestReadRejectsBadInput(t *testing.T) {
	cases := []struct {
		name            string
		nodes, nets, pl string
		file            string
		line            int
	}{
		{"short nodes line", "UCLA nodes 1.0\na 2\n", netsSample, plSample, "nodes", 2},
		{"bad node size", "UCLA nodes 1.0\na 2 oops\n", netsSample, plSample, "nodes", 2},
		{"non-finite node size", "UCLA nodes 1.0\na NaN 1\n", netsSample, plSample, "nodes", 2},
		{"pin before NetDegree", nodesSample, "UCLA nets 1.0\n\ta I : 0 0\n", plSample, "nets", 2},
		{"non-finite pin offset", nodesSample, "UCLA nets 1.0\nNetDegree : 1\n\ta I : Inf 0\n", plSample, "nets", 3},
		{"non-finite position", nodesSample, netsSample, "UCLA pl 1.0\na 2 Inf : N\n", "pl", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.nodes), strings.NewReader(tc.nets),
				strings.NewReader(tc.pl), nil)
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("want *ParseError, got %T: %v", err, err)
			}
			if pe.File != tc.file || pe.Line != tc.line {
				t.Fatalf("position = %s:%d, want %s:%d (%v)", pe.File, pe.Line, tc.file, tc.line, err)
			}
		})
	}
}

// ReadAux must substitute real file paths into ParseError positions.
func TestReadAuxReportsPath(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	write("x.nodes", "UCLA nodes 1.0\na 2 oops\n")
	write("x.nets", netsSample)
	write("x.pl", plSample)
	aux := write("x.aux", "RowBasedPlacement : x.nodes x.nets x.pl\n")
	_, err := ReadAux(aux)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("want *ParseError, got %T: %v", err, err)
	}
	if pe.File != filepath.Join(dir, "x.nodes") || pe.Line != 2 {
		t.Fatalf("position = %s:%d, want %s:2", pe.File, pe.Line, filepath.Join(dir, "x.nodes"))
	}
}

// TestWriteReadRoundTrip reads testdata/roundtrip, the Bookshelf files of
// the gen.Chip instance below (pad nets dropped, cells at lower-left .pl
// corners), and checks that the reader recovers that instance.
func TestWriteReadRoundTrip(t *testing.T) {
	inst, err := gen.Chip(gen.ChipSpec{Name: "bs", NumCells: 200, Seed: 17, NumMacros: 2})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := ReadAux(filepath.Join("testdata", "roundtrip", "chip.aux"))
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumCells() != inst.N.NumCells() {
		t.Fatalf("cells: %d vs %d", n2.NumCells(), inst.N.NumCells())
	}
	// Pad nets are absent from the files (no Bookshelf representation); all
	// cell-only nets must survive with identical HPWL contribution.
	wantHPWL := 0.0
	for ni := range inst.N.Nets {
		cellPins := 0
		for _, p := range inst.N.Nets[ni].Pins {
			if !p.IsPad() {
				cellPins++
			}
		}
		if cellPins >= 2 && cellPins == len(inst.N.Nets[ni].Pins) {
			wantHPWL += inst.N.NetHPWL(netlist.NetID(ni))
		}
	}
	// Positions round-trip exactly, so the HPWL of pure cell nets must
	// match up to float formatting noise.
	got := 0.0
	for ni := range n2.Nets {
		got += n2.NetHPWL(netlist.NetID(ni))
	}
	if math.Abs(got-wantHPWL) > 1e-6*wantHPWL {
		t.Fatalf("HPWL %g vs %g", got, wantHPWL)
	}
	// Fixed cells preserved.
	fixed := 0
	for i := range n2.Cells {
		if n2.Cells[i].Fixed {
			fixed++
		}
	}
	if fixed != 2 {
		t.Fatalf("fixed = %d, want 2", fixed)
	}
}

func TestReadAuxMissingFiles(t *testing.T) {
	dir := t.TempDir()
	aux := filepath.Join(dir, "x.aux")
	if err := os.WriteFile(aux, []byte("RowBasedPlacement : only.nodes\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAux(aux); err == nil {
		t.Fatal("incomplete aux accepted")
	}
}
