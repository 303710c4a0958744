package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	r := New(nil)
	place := r.StartSpan("place")
	global := r.StartSpan("global")
	for i := 0; i < 3; i++ {
		lv := r.StartSpan("level")
		lv.Attr("grid", float64(int(4)<<i))
		lv.Attr("collapse_share", 0.5)
		lv.Attr("hpwl", float64(100+i))
		lv.End()
	}
	global.End()
	legal := r.StartSpan("legalize")
	legal.End()
	place.End()

	r.mu.Lock()
	recs := append([]spanRecord(nil), r.finished...)
	r.mu.Unlock()
	if len(recs) != 6 {
		t.Fatalf("finished spans = %d, want 6", len(recs))
	}
	parentOf := map[string]string{}
	byID := map[int64]spanRecord{}
	for _, rec := range recs {
		byID[rec.id] = rec
	}
	for _, rec := range recs {
		p := ""
		if rec.parent != 0 {
			p = byID[rec.parent].name
		}
		parentOf[rec.name] = p
	}
	want := map[string]string{"place": "", "global": "place", "level": "global", "legalize": "place"}
	for name, parent := range want {
		if parentOf[name] != parent {
			t.Errorf("parent of %q = %q, want %q", name, parentOf[name], parent)
		}
	}

	var buf bytes.Buffer
	r.WriteSummary(&buf)
	out := buf.String()
	if !strings.Contains(out, "place") || !strings.Contains(out, "level") {
		t.Fatalf("summary missing spans:\n%s", out)
	}
	if !strings.Contains(out, "3x") {
		t.Fatalf("summary did not aggregate the 3 level spans:\n%s", out)
	}
	// Each level span also gets its own line, grid first, in order.
	wantLevels := "levels:\n" +
		"  grid    4  collapse_share 0.500  hpwl 100\n" +
		"  grid    8  collapse_share 0.500  hpwl 101\n" +
		"  grid   16  collapse_share 0.500  hpwl 102\n"
	if !strings.Contains(out, wantLevels) {
		t.Fatalf("summary lacks the per-level lines %q:\n%s", wantLevels, out)
	}
}

// TestCountsAreConcurrencySafe drives counters, gauges and attributes of
// one open span from many goroutines, as realization workers may.
func TestCountsAreConcurrencySafe(t *testing.T) {
	r := New(nil)
	parent := r.StartSpan("realize")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Count("units", 1)
				r.Gauge("occupancy", 0.5)
				parent.Attr("workers", 16)
			}
		}()
	}
	wg.Wait()
	parent.End()
	if got := r.Counter("units"); got != 16*50 {
		t.Fatalf("units counter = %g, want %d", got, 16*50)
	}
	r.mu.Lock()
	n := len(r.finished)
	r.mu.Unlock()
	if n != 1 {
		t.Fatalf("finished spans = %d, want 1", n)
	}
}

func TestCounterAndGaugeAggregation(t *testing.T) {
	r := New(nil)
	r.Count("cg.iters", 10)
	r.Count("cg.iters", 32)
	r.Gauge("occupancy", 0.25)
	r.Gauge("occupancy", 0.75)
	if got := r.Counter("cg.iters"); got != 42 {
		t.Fatalf("counter = %g, want 42", got)
	}
	if got := r.Gauges()["occupancy"]; got != 0.75 {
		t.Fatalf("gauge = %g, want last value 0.75", got)
	}
	if got := r.Counter("missing"); got != 0 {
		t.Fatalf("missing counter = %g, want 0", got)
	}
}

func TestJSONTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONSink(&buf)
	r := New(sink)
	root := r.StartSpan("place")
	child := r.StartSpan("global")
	child.Attr("level", 3)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	r.Count("ns.pivots", 123)
	r.Gauge("occupancy", 0.5)
	r.Flush()
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans, counters, gauges int
	byName := map[string]Event{}
	for _, e := range events {
		byName[e.Name] = e
		switch e.Type {
		case EventSpan:
			spans++
		case EventCounter:
			counters++
		case EventGauge:
			gauges++
		}
	}
	if spans != 2 || counters != 1 || gauges != 1 {
		t.Fatalf("spans/counters/gauges = %d/%d/%d, want 2/1/1", spans, counters, gauges)
	}
	g := byName["global"]
	if g.Parent != byName["place"].ID {
		t.Fatalf("global parent = %d, want %d", g.Parent, byName["place"].ID)
	}
	if g.DurUS <= 0 {
		t.Fatalf("global duration = %dus, want > 0", g.DurUS)
	}
	if g.Attrs["level"] != 3 {
		t.Fatalf("global attrs = %v, want level=3", g.Attrs)
	}
	if byName["ns.pivots"].Value != 123 {
		t.Fatalf("counter value = %g, want 123", byName["ns.pivots"].Value)
	}
}

// TestProgressHook pins the heartbeat contract the serve watchdog relies
// on: the hook fires with the span name at every StartSpan and End,
// installing nil removes it, and a nil recorder swallows everything.
func TestProgressHook(t *testing.T) {
	r := New(nil)
	var mu sync.Mutex
	var beats []string
	r.SetProgress(func(name string) {
		mu.Lock()
		beats = append(beats, name)
		mu.Unlock()
	})
	s := r.StartSpan("place")
	c := r.StartSpan("wave")
	c.End()
	s.End()
	want := []string{"place", "wave", "wave", "place"}
	mu.Lock()
	got := append([]string(nil), beats...)
	mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("heartbeats = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("heartbeat %d = %q, want %q (all: %v)", i, got[i], want[i], got)
		}
	}

	// Removing the hook stops the heartbeats; re-ending an ended span never
	// fired one in the first place (End is idempotent).
	r.SetProgress(nil)
	s2 := r.StartSpan("quiet")
	s2.End()
	s2.End()
	mu.Lock()
	n := len(beats)
	mu.Unlock()
	if n != len(want) {
		t.Fatalf("heartbeats after removal = %d, want %d", n, len(want))
	}

	var nilR *Recorder
	nilR.SetProgress(func(string) { t.Fatal("nil recorder fired a heartbeat") })
	nilR.StartSpan("x").End()
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	s := r.StartSpan("x")
	c := r.StartSpan("y")
	s.Attr("k", 1)
	c.End()
	s.End()
	r.Count("n", 1)
	r.Gauge("g", 1)
	r.Flush()
	if r.Counter("n") != 0 || r.Counters() != nil || r.Gauges() != nil {
		t.Fatal("nil recorder must report nothing")
	}
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil summary = %q", buf.String())
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	r := New(nil)
	s := r.StartSpan("once")
	s.End()
	s.End()
	r.mu.Lock()
	n := len(r.finished)
	r.mu.Unlock()
	if n != 1 {
		t.Fatalf("finished spans = %d, want 1", n)
	}
}

// BenchmarkDisabledRecorder guards the nil fast path: with recording
// disabled the pipeline's obs calls must cost a nil check each (no locks,
// no allocation), keeping total overhead under 1% of any placement run.
func BenchmarkDisabledRecorder(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan("phase")
		c := r.StartSpan("wave")
		r.Count("cg.iters", 17)
		r.Gauge("occupancy", 0.9)
		c.End()
		s.End()
	}
}

// BenchmarkEnabledRecorder is the reference point for the enabled path.
func BenchmarkEnabledRecorder(b *testing.B) {
	r := New(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.StartSpan("phase")
		r.Count("cg.iters", 17)
		s.End()
	}
}
