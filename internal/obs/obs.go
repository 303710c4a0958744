// Package obs is the placer's observability substrate: hierarchical
// wall-clock spans, named counters and gauges, a pluggable event sink with
// a JSON-lines trace exporter, and an ASCII summary-tree reporter.
//
// The whole package is nil-safe: every method on *Recorder and *Span
// treats a nil receiver as "recording disabled" and returns immediately,
// so the placement pipeline threads a single *Recorder pointer through its
// configs and pays only a nil check when observability is off (see
// BenchmarkDisabledRecorder). When recording is enabled, span begin/end
// and counter updates take a short mutex-protected critical section;
// events stream to the Sink as spans end, while counters and gauges
// aggregate in memory until Flush.
//
// Concurrency: StartSpan/End maintain a current-span stack, so spans are
// started from the sequential pipeline phases only; parallel sections
// (the realization waves of internal/fbp) start their spans from the
// coordinating goroutine. Counters, gauges and span attributes are safe
// from any goroutine.
package obs

import (
	"sync"
	"time"
)

// Recorder collects spans, counters and gauges for one placement run.
// A nil *Recorder is valid and records nothing.
type Recorder struct {
	sink  Sink
	start time.Time

	mu       sync.Mutex
	nextID   int64              // guarded by mu
	current  *Span              // guarded by mu
	finished []spanRecord       // guarded by mu
	counters map[string]float64 // guarded by mu
	gauges   map[string]float64 // guarded by mu
	progress Progress           // guarded by mu
}

// Progress is a liveness heartbeat hook: it fires with the span name at
// every span start and end on the recorder, outside the recorder's lock.
// A stuck-job watchdog hangs off this hook — span boundaries are exactly the granularity (level, wave, solve) at
// which a healthy placement provably advances. The hook must be fast and
// must not call back into the recorder's span API.
type Progress func(name string)

// SetProgress installs (or, with nil, removes) the heartbeat hook.
func (r *Recorder) SetProgress(p Progress) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.progress = p
	r.mu.Unlock()
}

// spanRecord is a finished span as retained for the summary tree.
type spanRecord struct {
	id, parent int64
	name       string
	start      time.Duration // offset from recorder start
	dur        time.Duration
	attrs      map[string]float64
}

// New returns a Recorder streaming span events to sink. A nil sink is the
// no-op default: spans and counters still aggregate in memory (for
// Summary/Counters), nothing is exported.
func New(sink Sink) *Recorder {
	return &Recorder{
		sink:     sink,
		start:    time.Now(),
		counters: map[string]float64{},
		gauges:   map[string]float64{},
	}
}

// Span is one timed phase. A nil *Span is valid and records nothing.
type Span struct {
	r      *Recorder
	id     int64
	parent *Span
	name   string
	start  time.Time
	attrs  map[string]float64
	ended  bool
}

// StartSpan begins a span as a child of the innermost span started with
// StartSpan on this recorder (the current-span stack). Use from the
// sequential pipeline phases only.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.nextID++
	s := &Span{r: r, id: r.nextID, parent: r.current, name: name, start: time.Now()}
	r.current = s
	p := r.progress
	r.mu.Unlock()
	if p != nil {
		p(name)
	}
	return s
}

// Attr attaches a numeric attribute to the span (exported with its span
// event and shown by the trace, not the summary tree).
func (s *Span) Attr(key string, v float64) {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]float64{}
	}
	s.attrs[key] = v
	s.r.mu.Unlock()
}

// End finishes the span, retains it for the summary tree and emits a span
// event to the sink. Ending a span twice is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	r := s.r
	var parentID int64
	r.mu.Lock()
	if s.ended {
		r.mu.Unlock()
		return
	}
	s.ended = true
	if r.current == s {
		r.current = s.parent
	}
	if s.parent != nil {
		parentID = s.parent.id
	}
	rec := spanRecord{
		id: s.id, parent: parentID, name: s.name,
		start: s.start.Sub(r.start), dur: end.Sub(s.start), attrs: s.attrs,
	}
	r.finished = append(r.finished, rec)
	sink := r.sink
	p := r.progress
	r.mu.Unlock()
	if p != nil {
		p(rec.name)
	}
	if sink != nil {
		sink.Emit(Event{
			Type: EventSpan, Name: rec.name, ID: rec.id, Parent: rec.parent,
			StartUS: rec.start.Microseconds(), DurUS: rec.dur.Microseconds(),
			Attrs: rec.attrs,
		})
	}
}

// Count adds delta to the named counter. Counters aggregate in memory and
// are exported as one event each by Flush.
func (r *Recorder) Count(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Gauge sets the named gauge to its most recent value.
func (r *Recorder) Gauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Counter returns the current value of the named counter (0 if unset).
func (r *Recorder) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of all counters.
func (r *Recorder) Counters() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Gauges returns a copy of all gauges.
func (r *Recorder) Gauges() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.gauges))
	for k, v := range r.gauges {
		out[k] = v
	}
	return out
}

// Flush exports the aggregated counters and gauges as one event per name
// (sorted) and flushes the sink if it supports flushing. Call once at the
// end of a run, after all spans have ended.
func (r *Recorder) Flush() {
	if r == nil {
		return
	}
	r.mu.Lock()
	sink := r.sink
	counters := sortedKV(r.counters)
	gauges := sortedKV(r.gauges)
	r.mu.Unlock()
	if sink == nil {
		return
	}
	for _, kv := range counters {
		sink.Emit(Event{Type: EventCounter, Name: kv.k, Value: kv.v})
	}
	for _, kv := range gauges {
		sink.Emit(Event{Type: EventGauge, Name: kv.k, Value: kv.v})
	}
	if f, ok := sink.(interface{ Flush() error }); ok {
		// Best-effort: the sink (e.g. JSONLSink) latches its own error,
		// which callers inspect via its Err method after the run.
		_ = f.Flush()
	}
}
