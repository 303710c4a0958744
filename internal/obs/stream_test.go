package obs

import (
	"strconv"
	"sync"
	"testing"
)

func ev(name string) Event { return Event{Type: "state", Name: name} }

func names(evs []Event) string {
	s := ""
	for _, e := range evs {
		s += e.Name
	}
	return s
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

func TestBroadcastReplayWindow(t *testing.T) {
	b := NewBroadcast(4)
	for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
		b.Emit(ev(n))
	}
	replay, next, _, wake := b.Read(0)
	if names(replay) != "cdef" || next != 6 {
		t.Fatalf("replay window: got %q next %d, want the 4 retained cdef next 6", names(replay), next)
	}
	if closed(wake) {
		t.Fatal("wake closed before any new event")
	}
	b.Emit(ev("g"))
	if !closed(wake) {
		t.Fatal("Emit did not wake the reader")
	}
	live, next, skipped, _ := b.Read(next)
	if names(live) != "g" || next != 7 || skipped != 0 {
		t.Fatalf("live read: got %q next %d skipped %d, want g 7 0", names(live), next, skipped)
	}
}

// TestBroadcastDropsSlowSubscriber pins the only way a reader loses
// events: falling more than retain behind. Read skips the evicted events,
// reports how many, and resumes at the oldest retained one; Emit never
// waits for the reader.
func TestBroadcastDropsSlowSubscriber(t *testing.T) {
	b := NewBroadcast(2)
	_, cur, _, _ := b.Read(0)
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		b.Emit(ev(n))
	}
	got, next, skipped, _ := b.Read(cur)
	if names(got) != "de" || skipped != 3 || next != 5 {
		t.Fatalf("slow reader: got %q skipped %d next %d, want de 3 5", names(got), skipped, next)
	}
	// A reader inside the window loses nothing.
	got, _, skipped, _ = b.Read(3)
	if names(got) != "de" || skipped != 0 {
		t.Fatalf("reader at the oldest retained event: got %q skipped %d, want de 0", names(got), skipped)
	}
}

func TestBroadcastClose(t *testing.T) {
	b := NewBroadcast(2)
	b.Emit(ev("a"))
	_, _, _, wake := b.Read(0)
	b.Close()
	if !closed(wake) {
		t.Fatal("Close did not wake the waiting reader")
	}
	b.Close()       // idempotent
	b.Emit(ev("b")) // no-op, must not panic or grow the log
	replay, next, _, lateWake := b.Read(0)
	if names(replay) != "a" || next != 1 {
		t.Fatalf("late reader: got %q next %d, want a 1", names(replay), next)
	}
	if lateWake != nil {
		t.Fatal("late reader got a wake channel from a closed log")
	}
}

// TestBroadcastWakesEveryReader checks that one Emit wakes every reader
// waiting on the log, and that a Read after it hands out a fresh channel.
func TestBroadcastWakesEveryReader(t *testing.T) {
	b := NewBroadcast(2)
	_, _, _, w1 := b.Read(0)
	_, _, _, w2 := b.Read(0)
	b.Emit(ev("a"))
	if !closed(w1) || !closed(w2) {
		t.Fatal("Emit did not wake every waiting reader")
	}
	_, _, _, w3 := b.Read(1)
	if closed(w3) {
		t.Fatal("fresh wake channel already closed with no new event")
	}
}

// TestBroadcastFollowerSeesEveryEvent has four readers follow a
// concurrent writer the way the service's /events handler does (Read,
// then wait on wake); each must receive every event in order while it
// stays within the window.
func TestBroadcastFollowerSeesEveryEvent(t *testing.T) {
	const n, readers = 500, 4
	b := NewBroadcast(DefaultRetain)
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got []Event
			var cur int64
			for {
				evs, next, skipped, wake := b.Read(cur)
				if skipped != 0 {
					t.Errorf("follower skipped %d events inside the window", skipped)
					return
				}
				got, cur = append(got, evs...), next
				if wake == nil {
					break
				}
				<-wake
			}
			if len(got) != n {
				t.Errorf("follower got %d events, want %d", len(got), n)
				return
			}
			for i, e := range got {
				if e.Name != strconv.Itoa(i) {
					t.Errorf("event %d is %q: out of order", i, e.Name)
					return
				}
			}
		}()
	}
	for i := range n {
		b.Emit(ev(strconv.Itoa(i)))
	}
	b.Close()
	wg.Wait()
}
