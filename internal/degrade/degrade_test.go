package degrade

import (
	"testing"

	"fbplace/internal/obs"
)

func TestNilLogIsInert(t *testing.T) {
	var l *Log
	l.Add("ckpt.write", "skipped", "x") // must not panic
	if l.Len() != 0 || l.Events() != nil {
		t.Fatal("nil log recorded something")
	}
}

func TestEventsSortedAndCounted(t *testing.T) {
	rec := obs.New(nil)
	l := New(rec)
	l.Add("preempt", "kept-running", "b")
	l.Add("ckpt.fallback", "previous-generation", "torn")
	l.Add("preempt", "kept-running", "a")
	rec.Flush()
	evs := l.Events()
	if l.Len() != 3 || len(evs) != 3 {
		t.Fatalf("len = %d/%d, want 3", l.Len(), len(evs))
	}
	want := []Event{
		{"ckpt.fallback", "previous-generation", "torn"},
		{"preempt", "kept-running", "a"},
		{"preempt", "kept-running", "b"},
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if got := rec.Counter("degrade.preempt"); got != 2 {
		t.Fatalf("degrade counter = %g, want 2", got)
	}
	if got := rec.Counter("degrade.ckpt.fallback"); got != 1 {
		t.Fatalf("degrade counter = %g, want 1", got)
	}
	// The returned slice is a copy: mutating it must not corrupt the log.
	evs[0].Stage = "mutated"
	if l.Events()[0].Stage == "mutated" {
		t.Fatal("Events returned the backing slice")
	}
}
