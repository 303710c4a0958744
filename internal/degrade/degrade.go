// Package degrade records what a run gave up without failing: a skipped
// checkpoint write, a preemption declined because its snapshot failed, a
// resume from an older snapshot generation, a watchdog strike. Each is
// appended to a Log so the placement Report can surface it; none changes
// the positions. Solver failures are not degradations: they are errors
// (DESIGN.md §6).
//
// Like the obs recorder, a nil *Log is valid and records nothing, so
// library entry points that predate the robustness pass keep working
// unchanged. When an obs.Recorder is attached, every event also bumps the
// counter "degrade.<stage>" for trace-based monitoring.
package degrade

import (
	"fmt"
	"sort"
	"sync"

	"fbplace/internal/obs"
)

// Event is one recorded fallback.
type Event struct {
	// Stage names the degraded component ("ckpt.write", "preempt",
	// "ckpt.fallback", ...).
	Stage string
	// Fallback names what the pipeline did instead ("skipped",
	// "kept-running", "previous-generation", ...).
	Fallback string
	// Detail is a human-readable explanation (the triggering error).
	Detail string
}

func (e Event) String() string {
	return fmt.Sprintf("%s -> %s (%s)", e.Stage, e.Fallback, e.Detail)
}

// Log collects degradation events. Safe for concurrent use; a nil *Log
// records nothing.
type Log struct {
	// Obs, when non-nil, receives a "degrade.<stage>" counter increment
	// per event.
	Obs *obs.Recorder

	mu     sync.Mutex
	events []Event
}

// New returns a Log that also bumps counters on rec (rec may be nil).
func New(rec *obs.Recorder) *Log { return &Log{Obs: rec} }

// Add records one fallback event.
func (l *Log) Add(stage, fallback, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, Event{Stage: stage, Fallback: fallback, Detail: detail})
	obsRec := l.Obs
	l.mu.Unlock()
	obsRec.Count("degrade."+stage, 1)
}

// Restore appends events recorded by a previous process (a checkpoint
// snapshot being resumed) without bumping obs counters: the counters
// describe this process's run, while restored events describe the logical
// run being continued.
func (l *Log) Restore(events []Event) {
	if l == nil || len(events) == 0 {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, events...)
	l.mu.Unlock()
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Events returns a copy of the recorded events sorted by (Stage, Fallback,
// Detail). Parallel realization workers append concurrently, so the raw
// append order depends on scheduling; the sorted view keeps reports
// deterministic across worker counts.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Fallback != b.Fallback {
			return a.Fallback < b.Fallback
		}
		return a.Detail < b.Detail
	})
	return out
}
