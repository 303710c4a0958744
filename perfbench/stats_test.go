package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"fbplace/internal/obs"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// The expected quartiles are Python's statistics.quantiles(xs, n=4), the
// figures the benchmark's spread check is defined by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // exclusive method extrapolates
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{4, 4, 4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestQuartilesDegenerate(t *testing.T) {
	if q1, q2, q3 := quartiles(nil); q1 != 0 || q2 != 0 || q3 != 0 {
		t.Errorf("quartiles(nil) = %g %g %g, want zeros", q1, q2, q3)
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Errorf("quartiles([7]) = %g %g %g, want 7 7 7", q1, q2, q3)
	}
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("quartiles sorted its input in place: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g, want 2.5", m)
	}
}

func TestMeanAndSum(t *testing.T) {
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %g, want 3", m)
	}
	if m := mean(nil); m != 0 {
		t.Errorf("mean of none = %g, want 0", m)
	}
	if s := sum([]float64{1.5, 2.5}); s != 4 {
		t.Errorf("sum = %g, want 4", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	if p := percentile(xs, 90); !near(p, 10) {
		t.Errorf("p90 = %g, want 10", p)
	}
	if p := percentile([]float64{1, 2}, 90); !near(p, 1.9) {
		t.Errorf("p90 of two = %g, want 1.9", p)
	}
	if p := percentile(nil, 90); p != 0 {
		t.Errorf("p90 of none = %g, want 0", p)
	}
}

func TestRatios(t *testing.T) {
	if r := nsWarmRatio(3, 1); r != 0.75 {
		t.Errorf("nsWarmRatio(3, 1) = %g, want 0.75", r)
	}
	if r := nsWarmRatio(0, 0); r != 0 {
		t.Errorf("nsWarmRatio with zero base = %g, want 0", r)
	}
	if r := usPerPivot(2, 4e6); r != 0.5 {
		t.Errorf("usPerPivot(2s, 4M) = %g, want 0.5", r)
	}
	if r := usPerPivot(1.5, 0); r != 0 {
		t.Errorf("usPerPivot with zero pivots = %g, want 0", r)
	}
}

func span(id, parent, start, dur int64, name string) obs.Event {
	return obs.Event{Type: obs.EventSpan, Name: name, ID: id, Parent: parent, StartUS: start, DurUS: dur}
}

func TestSpanSelfTime(t *testing.T) {
	events := []obs.Event{
		// root covers [0, 100); children cover [10, 30) and two overlapping
		// parallel children [50, 70) and [60, 80): 50us covered.
		span(1, 0, 0, 100, "root"),
		span(2, 1, 10, 20, "a"),
		span(3, 1, 50, 20, "b"),
		span(4, 1, 60, 20, "b"),
		// A grandchild only counts against its own parent.
		span(5, 2, 12, 5, "c"),
		// A child ending past its parent is clipped at the parent's end.
		span(6, 0, 200, 10, "late"),
		span(7, 6, 205, 10, "tail"),
		{Type: obs.EventCounter, Name: "n", Value: 2},
		{Type: obs.EventCounter, Name: "n", Value: 3},
	}
	st := newSpanTimes()
	st.add(events)
	want := map[string][3]float64{ // total, self, max in seconds
		"root": {100e-6, 50e-6, 100e-6},
		"a":    {20e-6, 15e-6, 20e-6},
		"b":    {40e-6, 40e-6, 20e-6},
		"c":    {5e-6, 5e-6, 5e-6},
		"late": {10e-6, 5e-6, 10e-6},
		"tail": {10e-6, 10e-6, 10e-6},
	}
	for name, w := range want {
		if got := [3]float64{st.total[name], st.self[name], st.max[name]}; !near(got[0], w[0]) || !near(got[1], w[1]) || !near(got[2], w[2]) {
			t.Errorf("%s: total/self/max = %v, want %v", name, got, w)
		}
	}
	if c := counterTotals(events)["n"]; c != 5 {
		t.Errorf("counter n = %g, want 5", c)
	}
}

func TestSpanAttrsAndGridSplit(t *testing.T) {
	level := func(id, start, dur int64, grid float64) obs.Event {
		e := span(id, 0, start, dur, "level")
		e.Attrs = map[string]float64{"grid": grid}
		return e
	}
	solve := span(2, 1, 0, 30, "fbp.solve")
	solve.Attrs = map[string]float64{"pivots": 40}
	events := []obs.Event{
		level(1, 0, 100, 8), solve, span(3, 1, 30, 60, "fbp.realize"),
		level(4, 100, 100, 16), span(5, 4, 100, 90, "fbp.realize"),
		span(6, 0, 300, 5, "fbp.realize"), // outside any level: total only
	}
	st := newSpanTimes()
	st.add(events)
	if got := st.attr["fbp.solve.pivots"]; got != 40 {
		t.Errorf("pivots attr = %g, want 40", got)
	}
	if got := st.byGrid["fbp.realize"]; len(got) != 2 || !near(got[8], 60e-6) || !near(got[16], 90e-6) {
		t.Errorf("realize by grid = %v, want 8: 60us, 16: 90us", got)
	}
	l := map[string]float64{}
	spanLayers(l, st, map[string]float64{"ns.warmstart": 1, "ns.coldfallback": 3})
	if !near(l["fbp.realize_block_s"], 60e-6) || !near(l["fbp.realize_pair_s"], 90e-6) || !near(l["fbp.realize_s"], 155e-6) {
		t.Errorf("block/pair/total realize = %g/%g/%g, want 60us/90us/155us",
			l["fbp.realize_block_s"], l["fbp.realize_pair_s"], l["fbp.realize_s"])
	}
	if !near(l["flow.us_per_pivot"], 30.0/40) || l["transport.ns_warm_ratio"] != 0.25 {
		t.Errorf("us_per_pivot %g, ns_warm_ratio %g, want 0.75, 0.25", l["flow.us_per_pivot"], l["transport.ns_warm_ratio"])
	}
}

func TestSpanTableAveragesInstances(t *testing.T) {
	a, b := newSpanTimes(), newSpanTimes()
	a.add([]obs.Event{span(1, 0, 0, 100, "root"), span(2, 1, 0, 80, "leaf")})
	b.add([]obs.Event{span(1, 0, 0, 300, "root"), span(2, 1, 0, 40, "leaf")})
	rows := spanTable([]*spanTimes{a, b})
	want := []spanRow{
		{Name: "root", Total: 200e-6, Self: 140e-6, Max: 300e-6},
		{Name: "leaf", Total: 60e-6, Self: 60e-6, Max: 80e-6},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v, want %+v", rows, want)
	}
	for i, w := range want {
		r := rows[i]
		if r.Name != w.Name || !near(r.Total, w.Total) || !near(r.Self, w.Self) || !near(r.Max, w.Max) {
			t.Errorf("row %d = %+v, want %+v", i, r, w)
		}
	}
}

func TestLayerMetricsReportsEveryLayer(t *testing.T) {
	s := &sample{layers: map[string]float64{"flow.pivots": 10}}
	m := layerMetrics([]*sample{s, {layers: map[string]float64{"flow.pivots": 20}}})
	if len(m) != len(layerUnits) {
		t.Fatalf("%d layer metrics, want %d", len(m), len(layerUnits))
	}
	if v := m["flow.pivots"].Value; v != 15 {
		t.Errorf("flow.pivots mean = %g, want 15", v)
	}
	if v := m["serve.rejected"].Value; v != 0 {
		t.Errorf("unexercised layer = %g, want 0", v)
	}
	r := perLayerReported(m)
	if _, ok := r["flow.pivots"]; !ok {
		t.Error("flow.pivots missing from the reported layers")
	}
	if _, ok := r["serve.rejected"]; ok {
		t.Error("serve.rejected, 0 off serve-mix, is reported")
	}
}

// A run's instance count follows from its length alone, so runs on fast
// and slow hosts measure the same instances.
func TestInstanceCount(t *testing.T) {
	w := workload{instanceSeconds: 2}
	for _, c := range []struct {
		seconds float64
		want    int
	}{{15, 8}, {14, 7}, {1, 2}, {60, 30}} {
		if got := w.instanceCount(c.seconds); got != c.want {
			t.Errorf("instanceCount(%g) = %d, want %d", c.seconds, got, c.want)
		}
	}
}

func TestServeJobs(t *testing.T) {
	jobs, dropped := serveJobs(7)
	if len(jobs) != 50 || dropped != 16 {
		t.Fatalf("%d jobs, %d without their movebound; want 50, 16", len(jobs), dropped)
	}
	repeats := 0
	for i, j := range jobs {
		if len(j.Movebounds) > 0 {
			t.Errorf("job %d keeps a movebound", i)
		}
		if i > 0 && reflect.DeepEqual(j, jobs[i-1]) {
			repeats++
		}
	}
	if repeats != 10 {
		t.Errorf("%d verbatim repeats, want 10", repeats)
	}
}

// BENCHMARK.json names the workloads and the reported layer metrics; they
// must be the ones this program runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, " "), strings.Join(workloadNames(), " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, program runs %q", got, want)
	}
	e2e := endToEnd([]float64{1}, []float64{1}, []float64{1})
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("BENCHMARK.json end_to_end %s (%s) is not an end-to-end metric of that unit", m.Name, m.Unit)
		}
		delete(e2e, m.Name)
	}
	for name := range e2e {
		t.Errorf("end-to-end metric %s is missing from BENCHMARK.json", name)
	}
	want := map[string]string{}
	for _, l := range layerUnits {
		if l.reported {
			want[l.name] = l.unit
		}
	}
	for _, l := range spec.PerLayer {
		if u, ok := want[l.Name]; !ok || u != l.Unit {
			t.Errorf("BENCHMARK.json per_layer %s (%s) is not a reported layer metric of that unit", l.Name, l.Unit)
		}
		delete(want, l.Name)
	}
	for name := range want {
		t.Errorf("reported layer metric %s is missing from BENCHMARK.json", name)
	}
}
