// Package bookshelf reads the Bookshelf placement format used
// by the ISPD contests the paper benchmarks against (§V, [15][16]): a
// .aux index file naming .nodes (cells), .nets (pins), .pl (placement)
// and .scl (rows) files. Supporting the real contest format lets users
// run this placer on the actual ISPD benchmarks when they have them —
// the repository itself ships only synthetic equivalents.
//
// The subset implemented covers what placement needs: terminals (fixed
// cells), movable nodes, weighted nets with pin offsets, placement
// coordinates with orientation ignored, and uniform row geometry from the
// .scl file.
package bookshelf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
)

// ParseError reports invalid Bookshelf input with its position: the file
// (the logical stream kind — "nodes", "nets", "pl", "scl" — or the actual
// path when the parse went through ReadAux) and the 1-based line number.
type ParseError struct {
	// File identifies the offending input, Line its 1-based line number
	// (0 when the error is not tied to one line).
	File string
	Line int
	// Reason describes the violation.
	Reason string
}

func (e *ParseError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("bookshelf: %s line %d: %s", e.File, e.Line, e.Reason)
	}
	return fmt.Sprintf("bookshelf: %s: %s", e.File, e.Reason)
}

// ReadAux loads an instance from a Bookshelf .aux file.
func ReadAux(path string) (*netlist.Netlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	var nodes, nets, pl, scl string
	for _, f := range strings.Fields(string(data)) {
		switch strings.ToLower(filepath.Ext(f)) {
		case ".nodes":
			nodes = filepath.Join(dir, f)
		case ".nets":
			nets = filepath.Join(dir, f)
		case ".pl":
			pl = filepath.Join(dir, f)
		case ".scl":
			scl = filepath.Join(dir, f)
		}
	}
	if nodes == "" || nets == "" || pl == "" {
		return nil, fmt.Errorf("bookshelf: aux %q does not name .nodes/.nets/.pl files", path)
	}
	return readFiles(nodes, nets, pl, scl)
}

func openAll(paths ...string) ([]io.ReadCloser, error) {
	var out []io.ReadCloser
	for _, p := range paths {
		if p == "" {
			out = append(out, nil)
			continue
		}
		f, err := os.Open(p)
		if err != nil {
			for _, o := range out {
				if o != nil {
					// Cleanup on the error path; the open error is what
					// the caller needs to see.
					_ = o.Close()
				}
			}
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func readFiles(nodesPath, netsPath, plPath, sclPath string) (*netlist.Netlist, error) {
	files, err := openAll(nodesPath, netsPath, plPath, sclPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, f := range files {
			if f != nil {
				// Read-only files: Close errors carry no information the
				// parse result does not already reflect.
				_ = f.Close()
			}
		}
	}()
	var sclReader io.Reader
	if files[3] != nil {
		sclReader = files[3]
	}
	n, err := Read(files[0], files[1], files[2], sclReader)
	// Read positions errors by stream kind; substitute the actual paths so
	// ReadAux callers see "…/ibm01.nodes line 12: …".
	var pe *ParseError
	if errors.As(err, &pe) {
		switch pe.File {
		case "nodes":
			pe.File = nodesPath
		case "nets":
			pe.File = netsPath
		case "pl":
			pe.File = plPath
		case "scl":
			pe.File = sclPath
		}
	}
	return n, err
}

// finite rejects the NaN/Inf values strconv.ParseFloat happily produces
// from "NaN"/"Inf" tokens.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// lineScanner yields non-comment, non-empty lines.
type lineScanner struct {
	sc   *bufio.Scanner
	line int
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return &lineScanner{sc: sc}
}

func (l *lineScanner) next() ([]string, bool) {
	for l.sc.Scan() {
		l.line++
		text := strings.TrimSpace(l.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") || strings.HasPrefix(text, "UCLA") {
			continue
		}
		return strings.Fields(text), true
	}
	return nil, false
}

// Read parses the four Bookshelf streams (scl may be nil: a unit row
// height and a bounding-box chip area are derived from the placement).
func Read(nodes, nets, pl io.Reader, scl io.Reader) (*netlist.Netlist, error) {
	type nodeInfo struct {
		w, h     float64
		terminal bool
	}
	nodeOrder := []string{}
	nodeMap := map[string]nodeInfo{}

	ls := newLineScanner(nodes)
	for {
		f, ok := ls.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(f[0], "NumNodes") || strings.HasPrefix(f[0], "NumTerminals"):
			continue
		default:
			if len(f) < 3 {
				return nil, &ParseError{File: "nodes", Line: ls.line, Reason: "want 'name w h [terminal]'"}
			}
			w, err1 := strconv.ParseFloat(f[1], 64)
			h, err2 := strconv.ParseFloat(f[2], 64)
			if err1 != nil || err2 != nil {
				return nil, &ParseError{File: "nodes", Line: ls.line, Reason: fmt.Sprintf("bad size %q x %q", f[1], f[2])}
			}
			// ParseFloat accepts "NaN" and "Inf"; a non-finite size would
			// poison every downstream area computation.
			if !finite(w) || !finite(h) {
				return nil, &ParseError{File: "nodes", Line: ls.line, Reason: fmt.Sprintf("non-finite size %gx%g", w, h)}
			}
			info := nodeInfo{w: w, h: h}
			if len(f) > 3 && strings.EqualFold(f[3], "terminal") {
				info.terminal = true
			}
			nodeOrder = append(nodeOrder, f[0])
			nodeMap[f[0]] = info
		}
	}

	// Placement (.pl): name x y [: orientation] [/FIXED]
	pos := map[string]geom.Point{}
	fixedPl := map[string]bool{}
	ls = newLineScanner(pl)
	for {
		f, ok := ls.next()
		if !ok {
			break
		}
		if len(f) < 3 {
			continue
		}
		x, err1 := strconv.ParseFloat(f[1], 64)
		y, err2 := strconv.ParseFloat(f[2], 64)
		if err1 != nil || err2 != nil {
			// Lenient by design: .pl files carry header and orientation
			// lines this subset does not model.
			continue
		}
		if !finite(x) || !finite(y) {
			return nil, &ParseError{File: "pl", Line: ls.line, Reason: fmt.Sprintf("non-finite position %g %g", x, y)}
		}
		pos[f[0]] = geom.Point{X: x, Y: y}
		for _, tok := range f[3:] {
			if strings.Contains(tok, "FIXED") {
				fixedPl[f[0]] = true
			}
		}
	}

	// Rows (.scl) determine chip area and row height.
	rowHeight := 1.0
	var chip geom.Rect
	haveChip := false
	if scl != nil {
		rows, h, err := parseSCL(scl)
		if err != nil {
			return nil, err
		}
		if len(rows) > 0 {
			rowHeight = h
			chip = rows[0]
			for _, r := range rows[1:] {
				chip = chip.Union(r)
			}
			haveChip = true
		}
	}
	if !haveChip {
		// Derive from node footprints.
		first := true
		for _, name := range nodeOrder {
			p, ok := pos[name]
			if !ok {
				continue
			}
			info := nodeMap[name]
			r := geom.Rect{Xlo: p.X, Ylo: p.Y, Xhi: p.X + info.w, Yhi: p.Y + info.h}
			if first {
				chip, first = r, false
			} else {
				chip.Xlo = math.Min(chip.Xlo, r.Xlo)
				chip.Ylo = math.Min(chip.Ylo, r.Ylo)
				chip.Xhi = math.Max(chip.Xhi, r.Xhi)
				chip.Yhi = math.Max(chip.Yhi, r.Yhi)
			}
		}
		if first {
			return nil, fmt.Errorf("bookshelf: no rows and no placed nodes to derive the chip area")
		}
		// Row height: smallest node height.
		rowHeight = math.Inf(1)
		for _, info := range nodeMap {
			if !info.terminal && info.h < rowHeight && info.h > 0 {
				rowHeight = info.h
			}
		}
		if math.IsInf(rowHeight, 1) {
			rowHeight = 1
		}
	}

	n := netlist.New(chip, rowHeight)
	ids := map[string]netlist.CellID{}
	for _, name := range nodeOrder {
		info := nodeMap[name]
		id := n.AddCell(netlist.Cell{
			Name:      name,
			Width:     info.w,
			Height:    info.h,
			Fixed:     info.terminal || fixedPl[name],
			Movebound: netlist.NoMovebound,
		})
		ids[name] = id
		// Bookshelf coordinates are lower-left corners; the netlist uses
		// centers.
		if p, ok := pos[name]; ok {
			n.SetPos(id, geom.Point{X: p.X + info.w/2, Y: p.Y + info.h/2})
		}
	}

	// Nets (.nets): NetDegree : d [name]  then  d lines  "node I/O : dx dy".
	ls = newLineScanner(nets)
	var current *netlist.Net
	flush := func() {
		if current != nil && len(current.Pins) >= 1 {
			n.AddNet(*current)
		}
		current = nil
	}
	for {
		f, ok := ls.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(f[0], "NumNets") || strings.HasPrefix(f[0], "NumPins"):
			continue
		case strings.HasPrefix(f[0], "NetDegree"):
			flush()
			name := ""
			if len(f) >= 4 {
				name = f[3]
			}
			current = &netlist.Net{Name: name, Weight: 1}
		default:
			if current == nil {
				return nil, &ParseError{File: "nets", Line: ls.line, Reason: "pin before NetDegree"}
			}
			id, ok := ids[f[0]]
			if !ok {
				return nil, &ParseError{File: "nets", Line: ls.line, Reason: fmt.Sprintf("unknown node %q", f[0])}
			}
			var off geom.Point
			// Offsets appear as "name I : dx dy" (relative to the node
			// center).
			for i, tok := range f {
				if tok == ":" && i+2 < len(f) {
					dx, e1 := strconv.ParseFloat(f[i+1], 64)
					dy, e2 := strconv.ParseFloat(f[i+2], 64)
					if e1 == nil && e2 == nil {
						if !finite(dx) || !finite(dy) {
							return nil, &ParseError{File: "nets", Line: ls.line, Reason: fmt.Sprintf("non-finite pin offset %g %g", dx, dy)}
						}
						off = geom.Point{X: dx, Y: dy}
					}
					break
				}
			}
			current.Pins = append(current.Pins, netlist.Pin{Cell: id, Offset: off})
		}
	}
	flush()
	if err := n.Validate(0); err != nil {
		return nil, fmt.Errorf("bookshelf: %w", err)
	}
	return n, nil
}

// parseSCL extracts row rectangles and the (uniform) row height.
func parseSCL(r io.Reader) ([]geom.Rect, float64, error) {
	ls := newLineScanner(r)
	var rows []geom.Rect
	height := 1.0
	var cur struct {
		coord, height, subOrigin, numSites, siteWidth float64
		active                                        bool
	}
	cur.siteWidth = 1
	for {
		f, ok := ls.next()
		if !ok {
			break
		}
		key := strings.ToLower(f[0])
		val := func() float64 {
			for i, tok := range f {
				if tok == ":" && i+1 < len(f) {
					v, _ := strconv.ParseFloat(f[i+1], 64)
					return v
				}
			}
			return 0
		}
		switch {
		case key == "corerow":
			cur.active = true
			cur.siteWidth = 1
		case key == "coordinate" && cur.active:
			cur.coord = val()
		case key == "height" && cur.active:
			cur.height = val()
		case key == "subroworigin" && cur.active:
			cur.subOrigin = val()
			// NumSites usually appears on the same line.
			for i, tok := range f {
				if strings.EqualFold(tok, "NumSites") && i+2 < len(f) {
					v, _ := strconv.ParseFloat(f[i+2], 64)
					cur.numSites = v
				}
			}
		case key == "sitewidth" && cur.active:
			cur.siteWidth = val()
		case key == "end" && cur.active:
			w := cur.numSites * cur.siteWidth
			if !finite(cur.subOrigin) || !finite(cur.coord) || !finite(w) || !finite(cur.height) {
				return nil, 0, &ParseError{File: "scl", Line: ls.line, Reason: "non-finite row geometry"}
			}
			rows = append(rows, geom.Rect{
				Xlo: cur.subOrigin, Ylo: cur.coord,
				Xhi: cur.subOrigin + w, Yhi: cur.coord + cur.height,
			})
			if cur.height > 0 {
				height = cur.height
			}
			cur.active = false
			cur.coord, cur.height, cur.subOrigin, cur.numSites = 0, 0, 0, 0
		}
	}
	return rows, height, nil
}
