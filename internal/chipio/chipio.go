// Package chipio reads and writes placement instances as a simple
// line-oriented text format, so generated testbeds can be stored and the
// placer CLI can operate on files (in the spirit of the bookshelf format
// of the ISPD contests, but self-contained in one file including
// movebounds and positions).
//
// Format (whitespace separated, '#' starts a comment line):
//
//	FBPLACE v1
//	AREA xlo ylo xhi yhi ROWHEIGHT h
//	MOVEBOUND <name> inclusive|exclusive <nrects> { xlo ylo xhi yhi }...
//	CELL <name> <w> <h> <x> <y> [FIXED] [MB <idx>]
//	NET <name> <weight> <npins> { PIN <cell-index> <dx> <dy> | PAD <x> <y> }...
package chipio

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"fbplace/internal/geom"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// ParseError reports malformed chipio input with the 1-based line number
// the parser stopped at. Semantic errors found after parsing (dangling PIN
// references, bad movebound indices) are reported by netlist.Validate
// instead and carry no line.
type ParseError struct {
	Line   int
	Reason string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("chipio: line %d: %s", e.Line, e.Reason)
}

// WriteHex dumps positions as the hex float64 bit patterns "xbits ybits",
// one line per cell, so two placements can be compared for bit-identity
// with cmp or diff.
func WriteHex(w io.Writer, x, y []float64) error {
	bw := bufio.NewWriter(w)
	for i := range x {
		fmt.Fprintf(bw, "%016x %016x\n", math.Float64bits(x[i]), math.Float64bits(y[i]))
	}
	return bw.Flush()
}

// Write serializes the netlist and movebounds.
func Write(w io.Writer, n *netlist.Netlist, mbs []region.Movebound) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "FBPLACE v1")
	fmt.Fprintf(bw, "AREA %g %g %g %g ROWHEIGHT %g\n",
		n.Area.Xlo, n.Area.Ylo, n.Area.Xhi, n.Area.Yhi, n.RowHeight)
	for _, m := range mbs {
		fmt.Fprintf(bw, "MOVEBOUND %s %s %d", sanitize(m.Name), m.Kind, len(m.Area))
		for _, r := range m.Area {
			fmt.Fprintf(bw, " %g %g %g %g", r.Xlo, r.Ylo, r.Xhi, r.Yhi)
		}
		fmt.Fprintln(bw)
	}
	for i := range n.Cells {
		c := &n.Cells[i]
		fmt.Fprintf(bw, "CELL %s %g %g %g %g", sanitize(c.Name), c.Width, c.Height, n.X[i], n.Y[i])
		if c.Fixed {
			fmt.Fprint(bw, " FIXED")
		}
		if c.Movebound != netlist.NoMovebound {
			fmt.Fprintf(bw, " MB %d", c.Movebound)
		}
		fmt.Fprintln(bw)
	}
	for ni := range n.Nets {
		net := &n.Nets[ni]
		fmt.Fprintf(bw, "NET %s %g %d", sanitize(net.Name), net.Weight, len(net.Pins))
		for _, p := range net.Pins {
			if p.IsPad() {
				fmt.Fprintf(bw, " PAD %g %g", p.Offset.X, p.Offset.Y)
			} else {
				fmt.Fprintf(bw, " PIN %d %g %g", p.Cell, p.Offset.X, p.Offset.Y)
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

func sanitize(s string) string {
	if s == "" {
		return "_"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// Read parses an instance written by Write.
func Read(r io.Reader) (*netlist.Netlist, []region.Movebound, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	line := 0
	next := func() ([]string, error) {
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" || strings.HasPrefix(text, "#") {
				continue
			}
			return strings.Fields(text), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	bad := func(msg string, args ...interface{}) error {
		return &ParseError{Line: line, Reason: fmt.Sprintf(msg, args...)}
	}

	head, err := next()
	if err != nil || len(head) < 2 || head[0] != "FBPLACE" || head[1] != "v1" {
		return nil, nil, bad("missing FBPLACE v1 header")
	}
	area, err := next()
	if err != nil || len(area) != 7 || area[0] != "AREA" || area[5] != "ROWHEIGHT" {
		return nil, nil, bad("missing AREA line")
	}
	f := func(s string) float64 {
		v, e := strconv.ParseFloat(s, 64)
		if err == nil {
			switch {
			case e != nil:
				err = bad("bad number %q", s)
			case math.IsNaN(v) || math.IsInf(v, 0):
				// ParseFloat accepts "NaN" and "Inf"; neither has a meaning
				// in any chipio field.
				err = bad("non-finite number %q", s)
			}
		}
		return v
	}
	chip := geom.Rect{Xlo: f(area[1]), Ylo: f(area[2]), Xhi: f(area[3]), Yhi: f(area[4])}
	rh := f(area[6])
	if err != nil {
		return nil, nil, err
	}
	n := netlist.New(chip, rh)
	var mbs []region.Movebound

	for {
		fields, nerr := next()
		if nerr == io.EOF {
			break
		}
		if nerr != nil {
			return nil, nil, nerr
		}
		switch fields[0] {
		case "MOVEBOUND":
			if len(fields) < 4 {
				return nil, nil, bad("short MOVEBOUND line")
			}
			kind := region.Inclusive
			switch fields[2] {
			case "inclusive":
			case "exclusive":
				kind = region.Exclusive
			default:
				return nil, nil, bad("bad movebound kind %q", fields[2])
			}
			cnt, cerr := strconv.Atoi(fields[3])
			if cerr != nil || len(fields) != 4+4*cnt {
				return nil, nil, bad("bad MOVEBOUND rect count")
			}
			mb := region.Movebound{Name: fields[1], Kind: kind}
			for i := 0; i < cnt; i++ {
				mb.Area = append(mb.Area, geom.Rect{
					Xlo: f(fields[4+4*i]), Ylo: f(fields[5+4*i]),
					Xhi: f(fields[6+4*i]), Yhi: f(fields[7+4*i]),
				})
			}
			if err != nil {
				return nil, nil, err
			}
			mbs = append(mbs, mb)
		case "CELL":
			if len(fields) < 6 {
				return nil, nil, bad("short CELL line")
			}
			c := netlist.Cell{Name: fields[1], Width: f(fields[2]), Height: f(fields[3]), Movebound: netlist.NoMovebound}
			x, y := f(fields[4]), f(fields[5])
			for i := 6; i < len(fields); i++ {
				switch fields[i] {
				case "FIXED":
					c.Fixed = true
				case "MB":
					if i+1 >= len(fields) {
						return nil, nil, bad("MB without index")
					}
					mb, merr := strconv.Atoi(fields[i+1])
					if merr != nil {
						return nil, nil, bad("bad MB index %q", fields[i+1])
					}
					c.Movebound = mb
					i++
				default:
					return nil, nil, bad("unknown CELL attribute %q", fields[i])
				}
			}
			if err != nil {
				return nil, nil, err
			}
			id := n.AddCell(c)
			n.SetPos(id, geom.Point{X: x, Y: y})
		case "NET":
			if len(fields) < 4 {
				return nil, nil, bad("short NET line")
			}
			cnt, cerr := strconv.Atoi(fields[3])
			if cerr != nil {
				return nil, nil, bad("bad pin count %q", fields[3])
			}
			net := netlist.Net{Name: fields[1], Weight: f(fields[2])}
			pos := 4
			for i := 0; i < cnt; i++ {
				if pos >= len(fields) {
					return nil, nil, bad("truncated NET pins")
				}
				switch fields[pos] {
				case "PAD":
					if pos+2 >= len(fields) {
						return nil, nil, bad("truncated PAD")
					}
					net.Pins = append(net.Pins, netlist.Pin{Cell: -1, Offset: geom.Point{X: f(fields[pos+1]), Y: f(fields[pos+2])}})
					pos += 3
				case "PIN":
					if pos+3 >= len(fields) {
						return nil, nil, bad("truncated PIN")
					}
					ci, cerr := strconv.Atoi(fields[pos+1])
					// The upper bound matters: CellID is int32, and a huge
					// index would wrap negative and silently turn the pin
					// into a pad instead of failing Validate.
					if cerr != nil || ci < 0 || ci > math.MaxInt32 {
						return nil, nil, bad("bad PIN cell %q", fields[pos+1])
					}
					net.Pins = append(net.Pins, netlist.Pin{Cell: netlist.CellID(ci), Offset: geom.Point{X: f(fields[pos+2]), Y: f(fields[pos+3])}})
					pos += 4
				default:
					return nil, nil, bad("unknown pin kind %q", fields[pos])
				}
			}
			if err != nil {
				return nil, nil, err
			}
			n.AddNet(net)
		default:
			return nil, nil, bad("unknown record %q", fields[0])
		}
	}
	if err := n.Validate(len(mbs)); err != nil {
		return nil, nil, fmt.Errorf("chipio: %w", err)
	}
	return n, mbs, nil
}
