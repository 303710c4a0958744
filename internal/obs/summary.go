package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// summaryNode aggregates all spans sharing the same name under the same
// parent aggregate (so five "level" spans under "global" print as one row
// with count 5).
type summaryNode struct {
	name     string
	count    int
	total    time.Duration
	children []*summaryNode
	byName   map[string]*summaryNode
}

func (n *summaryNode) child(name string) *summaryNode {
	if c, ok := n.byName[name]; ok {
		return c
	}
	c := &summaryNode{name: name, byName: map[string]*summaryNode{}}
	n.byName[name] = c
	n.children = append(n.children, c)
	return c
}

// WriteSummary renders the per-phase waterfall of all finished spans as an
// ASCII tree: count, total wall-clock and share of the parent per row,
// followed by the counters and gauges. Spans still running are omitted;
// spans whose parent has not finished attach at the root.
func (r *Recorder) WriteSummary(w io.Writer) {
	// Summary output is best-effort; the sticky printer keeps the first
	// write error and stops printing, instead of dropping errors per line.
	pr := &summaryPrinter{w: w}
	if r == nil {
		pr.printf("obs: recording disabled\n")
		return
	}
	r.mu.Lock()
	recs := append([]spanRecord(nil), r.finished...)
	counters := sortedKV(r.counters)
	gauges := sortedKV(r.gauges)
	r.mu.Unlock()

	sort.Slice(recs, func(a, b int) bool { return recs[a].id < recs[b].id })
	root := &summaryNode{byName: map[string]*summaryNode{}}
	nodeOf := map[int64]*summaryNode{}
	for _, rec := range recs {
		parent := root
		if p, ok := nodeOf[rec.parent]; ok && rec.parent != 0 {
			parent = p
		}
		n := parent.child(rec.name)
		n.count++
		n.total += rec.dur
		nodeOf[rec.id] = n
	}

	var walk func(n *summaryNode, depth int, parentTotal time.Duration)
	walk = func(n *summaryNode, depth int, parentTotal time.Duration) {
		pct := ""
		if parentTotal > 0 {
			pct = fmt.Sprintf("%5.1f%%", 100*float64(n.total)/float64(parentTotal))
		}
		name := fmt.Sprintf("%*s%s", 2*depth, "", n.name)
		pr.printf("%-34s %5dx %10s %s\n", name, n.count, fmtSummaryDur(n.total), pct)
		for _, c := range n.children {
			walk(c, depth+1, n.total)
		}
	}
	if len(root.children) == 0 {
		pr.printf("obs: no spans recorded\n")
	}
	for _, c := range root.children {
		walk(c, 0, 0)
	}
	// Every "level" span gets one line of its attributes, grid first: the
	// placer's per-level quality (collapse share, HPWL after the level's
	// anchored QP) in execution order.
	levelHeader := false
	for _, rec := range recs {
		if rec.name != "level" {
			continue
		}
		if !levelHeader {
			pr.printf("levels:\n")
			levelHeader = true
		}
		pr.printf("  grid %4.0f", rec.attrs["grid"])
		for _, kv := range sortedKV(rec.attrs) {
			if kv.k != "grid" {
				pr.printf("  %s %s", kv.k, fmtSummaryValue(kv.v))
			}
		}
		pr.printf("\n")
	}
	if len(counters) > 0 {
		pr.printf("counters:\n")
		for _, kv := range counters {
			pr.printf("  %-32s %14s\n", kv.k, fmtSummaryValue(kv.v))
		}
	}
	if len(gauges) > 0 {
		pr.printf("gauges:\n")
		for _, kv := range gauges {
			pr.printf("  %-32s %14.4g\n", kv.k, kv.v)
		}
	}
}

// summaryPrinter latches the first write error and suppresses output after
// it, so WriteSummary neither drops errors silently nor keeps writing to a
// broken pipe.
type summaryPrinter struct {
	w   io.Writer
	err error
}

func (p *summaryPrinter) printf(format string, a ...any) {
	if p.err == nil {
		_, p.err = fmt.Fprintf(p.w, format, a...)
	}
}

// fmtSummaryValue prints counts whole and keeps 3 decimals of sums of
// seconds or areas and of shares.
func fmtSummaryValue(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

func fmtSummaryDur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dus", d.Microseconds())
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return d.Round(10 * time.Millisecond).String()
	}
}

type kv struct {
	k string
	v float64
}

// sortedKV snapshots a metric map in name order; callers hold r.mu.
func sortedKV(m map[string]float64) []kv {
	out := make([]kv, 0, len(m))
	for k, v := range m {
		out = append(out, kv{k, v})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].k < out[b].k })
	return out
}
