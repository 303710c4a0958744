package obs

import "sync"

// Broadcast is a Sink that keeps a run's events as one bounded log: the
// last retain events, numbered in emit order from 0. Any number of readers
// follow it, each with its own cursor (Read), so a reader attaching
// mid-run sees the retained history and then the live tail through one
// path. It is the streaming backend of the placement service's per-job
// progress feeds (internal/serve exposes it over SSE/JSONL).
//
// Readers hold no state in the log: Emit is O(1) and never blocks, and a
// reader loses events only by falling more than retain behind, which Read
// reports.
type Broadcast struct {
	mu     sync.Mutex
	retain int
	ring   []Event       // circular: event seq lives at ring[seq%retain]; guarded by mu
	next   int64         // sequence number of the next Emit; guarded by mu
	wake   chan struct{} // closed by the next Emit or Close; nil until a Read asks; guarded by mu
	closed bool          // guarded by mu
}

// DefaultRetain is the log size used when NewBroadcast is given a
// non-positive retention.
const DefaultRetain = 1024

// NewBroadcast returns a Broadcast retaining the last retain events
// (retain <= 0 selects DefaultRetain).
func NewBroadcast(retain int) *Broadcast {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Broadcast{retain: retain}
}

// Emit appends e to the log, evicting the oldest event once retain are
// held, and wakes every waiting reader. Events emitted after Close are
// discarded.
func (b *Broadcast) Emit(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	if len(b.ring) < b.retain {
		b.ring = append(b.ring, e)
	} else {
		b.ring[b.next%int64(b.retain)] = e
	}
	b.next++
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}

// Read returns the retained events numbered from on, the cursor for the
// next Read, how many events from on were evicted before this reader got
// to them, and a channel the next Emit or Close closes. After Close, wake
// is nil: the events returned are the last the log will hold.
func (b *Broadcast) Read(from int64) (evs []Event, next, skipped int64, wake <-chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if oldest := b.next - int64(len(b.ring)); from < oldest {
		skipped, from = oldest-from, oldest
	}
	for seq := from; seq < b.next; seq++ {
		evs = append(evs, b.ring[seq%int64(b.retain)])
	}
	if !b.closed {
		if b.wake == nil {
			b.wake = make(chan struct{})
		}
		wake = b.wake
	}
	return evs, b.next, skipped, wake
}

// Close wakes every waiting reader and makes further Emits no-ops.
// Closing twice is safe.
func (b *Broadcast) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	if b.wake != nil {
		close(b.wake)
		b.wake = nil
	}
}
