package main

import (
	"sort"
	"sync"

	"fbplace/internal/obs"
)

// collector is an obs.Sink that keeps every event in memory; the traced
// run aggregates them once the iteration has ended.
type collector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// take returns the collected events and empties the collector.
func (c *collector) take() []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.events
	c.events = nil
	return ev
}

// spanTimes aggregates the span events of one or more recorders into
// per-name figures in seconds: total is the summed duration, self the
// summed self time — each span's duration minus the part of its interval
// covered by its child spans — and max the longest single span. attr sums
// each span attribute as "<span>.<attr>", and byGrid splits the total of
// every span whose parent is a "level" span by that level's grid size.
type spanTimes struct {
	total, self, max map[string]float64
	attr             map[string]float64
	byGrid           map[string]map[int]float64
}

func newSpanTimes() *spanTimes {
	return &spanTimes{
		total: map[string]float64{}, self: map[string]float64{}, max: map[string]float64{},
		attr: map[string]float64{}, byGrid: map[string]map[int]float64{},
	}
}

// add folds the span events of one recorder into t (span IDs are only
// unique per recorder).
func (t *spanTimes) add(events []obs.Event) {
	type interval struct{ start, end int64 }
	children := map[int64][]interval{}
	grid := map[int64]int{} // level span ID -> its grid size
	for _, e := range events {
		if e.Type != obs.EventSpan {
			continue
		}
		if e.Parent != 0 {
			children[e.Parent] = append(children[e.Parent], interval{e.StartUS, e.StartUS + e.DurUS})
		}
		if e.Name == "level" {
			grid[e.ID] = int(e.Attrs["grid"])
		}
	}
	for _, e := range events {
		if e.Type != obs.EventSpan {
			continue
		}
		start, end := e.StartUS, e.StartUS+e.DurUS
		kids := children[e.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		// Union of the child intervals clipped to the span: children of a
		// parallel section may overlap each other, and a child may outlive
		// its parent by the clock skew between the two End calls.
		covered := int64(0)
		cur := start
		for _, k := range kids {
			s, f := max(k.start, cur), min(k.end, end)
			if f > s {
				covered += f - s
				cur = f
			}
		}
		d := float64(e.DurUS) / 1e6
		t.total[e.Name] += d
		t.self[e.Name] += float64(e.DurUS-covered) / 1e6
		t.max[e.Name] = max(t.max[e.Name], d)
		for k, v := range e.Attrs {
			t.attr[e.Name+"."+k] += v
		}
		if g, ok := grid[e.Parent]; ok {
			if t.byGrid[e.Name] == nil {
				t.byGrid[e.Name] = map[int]float64{}
			}
			t.byGrid[e.Name][g] += d
		}
	}
}

// spanRow is one span name's per-instance mean total and self time and its
// longest single span, in seconds.
type spanRow struct {
	Name  string  `json:"name"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
	Max   float64 `json:"max_s"`
}

// spanTable averages the span times of n traced instances, heaviest self
// time first, so the layer where time went without a child span to
// explain it leads.
func spanTable(all []*spanTimes) []spanRow {
	rows := map[string]*spanRow{}
	for _, st := range all {
		for name, d := range st.total {
			r := rows[name]
			if r == nil {
				r = &spanRow{Name: name}
				rows[name] = r
			}
			r.Total += d / float64(len(all))
			r.Self += st.self[name] / float64(len(all))
			r.Max = max(r.Max, st.max[name])
		}
	}
	out := make([]spanRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// counterTotals sums the counter events by name.
func counterTotals(events []obs.Event) map[string]float64 {
	out := map[string]float64{}
	for _, e := range events {
		if e.Type == obs.EventCounter {
			out[e.Name] += e.Value
		}
	}
	return out
}
