package serve

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fbplace/internal/chipio"
	"fbplace/internal/gen"
	"fbplace/internal/obs"
)

// testSched starts a scheduler on a test temp dir and shuts it down on
// cleanup.
func testSched(t *testing.T, opt Options) *Scheduler {
	t.Helper()
	if opt.StateDir == "" {
		opt.StateDir = t.TempDir()
	}
	s, err := NewScheduler(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s
}

func chipSpec(cells int, seed int64) Spec {
	return Spec{Chip: &gen.ChipSpec{NumCells: cells, Seed: seed}}
}

func waitDone(t *testing.T, j *Job, timeout time.Duration) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(timeout):
		t.Fatalf("job %s did not finish within %v (state %s)", j.ID, timeout, j.State())
	}
}

// waitLevel blocks until the job has completed at least one partitioning
// level, i.e. it is genuinely running — the synchronization point the
// preemption tests key on.
func waitLevel(t *testing.T, j *Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	found := false
	j.follow(ctx, func(e obs.Event) bool {
		found = e.Type == obs.EventSpan && e.Name == "level"
		return !found
	})
	switch {
	case found:
	case ctx.Err() != nil:
		t.Fatalf("job %s completed no level within 60s", j.ID)
	default:
		t.Fatalf("job %s ended (state %s) before completing a level", j.ID, j.State())
	}
}

func mustResult(t *testing.T, j *Job) *Result {
	t.Helper()
	res, err := j.Result()
	if err != nil {
		t.Fatalf("job %s result: %v", j.ID, err)
	}
	return res
}

func TestSubmitRunsToDone(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	j, err := s.Submit(chipSpec(500, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: got %s, want done", j.State())
	}
	res := mustResult(t, j)
	if len(res.X) == 0 || res.HPWL <= 0 || res.Levels <= 0 {
		t.Fatalf("implausible result: %d cells, HPWL %g, %d levels", len(res.X), res.HPWL, res.Levels)
	}
	st := j.Status()
	if st.LevelsDone == 0 || st.Cached || st.Coalesced {
		t.Fatalf("status: %+v", st)
	}
	ok, err := verifyDirect(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("served result differs from a direct placer run")
	}
}

// TestTerminalJobReleasesContext is the regression test for the
// deadline-timer leak the ctxrelease/mutexguard audit surfaced: a job
// admitted with TimeoutMS owns a context.WithTimeout deadline timer, and
// before the fix nothing canceled it when the job reached a terminal
// state — the timer (and the context it retains) stayed armed until the
// deadline fired, long after the result was served.
func TestTerminalJobReleasesContext(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	spec := chipSpec(300, 3)
	spec.TimeoutMS = int64((10 * time.Minute) / time.Millisecond)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: got %s, want done", j.State())
	}
	if j.ctx.Err() == nil {
		t.Fatal("terminal job's context is still live; its deadline timer leaks until TimeoutMS elapses")
	}
}

func TestPreemptionBitIdentity(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	victim, err := s.Submit(Spec{
		Chip:  &gen.ChipSpec{NumCells: 2000, Seed: 3},
		Knobs: Knobs{MaxLevels: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, victim)
	hi, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 300, Seed: 4}, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, hi, 120*time.Second)
	waitDone(t, victim, 120*time.Second)
	if hi.State() != StateDone || victim.State() != StateDone {
		t.Fatalf("states: hi=%s victim=%s", hi.State(), victim.State())
	}
	if victim.Status().Preemptions < 1 {
		t.Fatalf("victim was never preempted (preemptions=0); the single worker should have yielded to priority 5")
	}
	if got := s.Obs().Counter("serve.preemptions"); got < 1 {
		t.Fatalf("serve.preemptions counter: got %g, want >= 1", got)
	}
	if got := s.Obs().Counter("serve.resumes"); got < 1 {
		t.Fatalf("serve.resumes counter: got %g, want >= 1", got)
	}
	// The contract the whole scheduler rests on: a preempted, snapshotted
	// and resumed placement is bit-for-bit the uninterrupted placement.
	ok, err := verifyDirect(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("preempted+resumed placement differs from an uninterrupted run")
	}
}

func TestDuplicateSubmissionHitsCache(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	a, err := s.Submit(chipSpec(400, 9))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, 60*time.Second)
	placements := s.Obs().Counter("serve.placements")

	b, err := s.Submit(chipSpec(400, 9))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b, 10*time.Second)
	if !b.Status().Cached {
		t.Fatal("duplicate submission was not served from the cache")
	}
	if got := s.Obs().Counter("serve.placements"); got != placements {
		t.Fatalf("cache hit still ran a placement: %g -> %g", placements, got)
	}
	if got := s.Obs().Counter("serve.cache.hits"); got != 1 {
		t.Fatalf("serve.cache.hits: got %g, want 1", got)
	}
	ra, rb := mustResult(t, a), mustResult(t, b)
	if ra != rb {
		t.Fatal("cache hit should share the stored Result")
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	// Fill the single worker so the duplicate pair stays queued together.
	filler, err := s.Submit(Spec{
		Chip: &gen.ChipSpec{NumCells: 2000, Seed: 5}, Priority: 9,
		Knobs: Knobs{MaxLevels: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, filler)
	a, err := s.Submit(chipSpec(400, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Submit(chipSpec(400, 10))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, 120*time.Second)
	waitDone(t, b, 120*time.Second)
	waitDone(t, filler, 120*time.Second)
	if !b.Status().Coalesced {
		t.Fatal("second identical submission did not coalesce onto the first")
	}
	if got := s.Obs().Counter("serve.placements"); got != 2 {
		t.Fatalf("placements: got %g, want 2 (filler + one leader for the pair)", got)
	}
	if ra, rb := mustResult(t, a), mustResult(t, b); ra != rb {
		t.Fatal("coalesced jobs should share one Result")
	}
}

func TestNoCacheBypassesCacheAndFlight(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	a, err := s.Submit(chipSpec(400, 12))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, 60*time.Second)
	placements := s.Obs().Counter("serve.placements")
	spec := chipSpec(400, 12)
	spec.NoCache = true
	b, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, b, 60*time.Second)
	if b.Status().Cached || b.Status().Coalesced {
		t.Fatalf("NoCache job was served from cache/flight: %+v", b.Status())
	}
	if got := s.Obs().Counter("serve.placements"); got != placements+1 {
		t.Fatalf("NoCache job did not run its own placement: %g -> %g", placements, got)
	}
	if got := s.Obs().Counter("serve.cache.bypassed"); got != 1 {
		t.Fatalf("serve.cache.bypassed: got %g, want 1", got)
	}
	// Bit-identity still holds, it just was not cached.
	if ok, err := verifyDirect(context.Background(), b); err != nil || !ok {
		t.Fatalf("NoCache result differs from direct run (ok=%v err=%v)", ok, err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	filler, err := s.Submit(Spec{
		Chip: &gen.ChipSpec{NumCells: 2000, Seed: 6}, Priority: 9,
		Knobs: Knobs{MaxLevels: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, filler)
	q, err := s.Submit(chipSpec(400, 13))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, q, 10*time.Second)
	if q.State() != StateCanceled {
		t.Fatalf("state: got %s, want canceled", q.State())
	}
	if _, err := q.Result(); err == nil {
		t.Fatal("canceled job returned a result")
	}
	if err := s.Cancel(q.ID); err != nil {
		t.Fatalf("canceling a terminal job: %v", err)
	}
	if err := s.Cancel("no-such-job"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job: got %v, want ErrUnknownJob", err)
	}
	waitDone(t, filler, 120*time.Second)
}

func TestCancelRunningJob(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	j, err := s.Submit(Spec{
		Chip:  &gen.ChipSpec{NumCells: 2000, Seed: 7},
		Knobs: Knobs{MaxLevels: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, j)
	if err := s.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateCanceled {
		t.Fatalf("state: got %s, want canceled", j.State())
	}
	if got := s.Obs().Counter("serve.canceled"); got != 1 {
		t.Fatalf("serve.canceled: got %g, want 1", got)
	}
}

func TestJobDeadlineFailsJob(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	spec := Spec{
		Chip:      &gen.ChipSpec{NumCells: 2000, Seed: 8},
		Knobs:     Knobs{MaxLevels: 6},
		TimeoutMS: 100,
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateFailed {
		t.Fatalf("state: got %s, want failed (100ms deadline on a multi-second job)", j.State())
	}
	if st := j.Status(); st.Error == "" {
		t.Fatal("failed job carries no error text")
	}
}

func TestBadSpecs(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	cases := []Spec{
		{}, // no instance source
		{Chip: &gen.ChipSpec{NumCells: 100, Seed: 1}, Netlist: "CHIP 1 1"}, // two sources
		{Chip: &gen.ChipSpec{NumCells: 100, Seed: 1}, Knobs: Knobs{Mode: "annealing"}},
	}
	for i, spec := range cases {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("case %d: bad spec accepted", i)
		}
	}
	if got := s.Obs().Counter("serve.badspec"); got != float64(len(cases)) {
		t.Fatalf("serve.badspec: got %g, want %d", got, len(cases))
	}
	var se *SpecError
	_, err := s.Submit(Spec{})
	if !errors.As(err, &se) {
		t.Fatalf("missing source: got %v, want *SpecError", err)
	}
}

// TestCancelQueuedLeaderPromotesFollowers covers flight dissolution:
// canceling a queued leader must promote its coalesced followers to a
// flight of their own (they finish with a real result) and free the key
// so later identical submissions do not coalesce onto a dead flight.
func TestCancelQueuedLeaderPromotesFollowers(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	filler, err := s.Submit(Spec{
		Chip: &gen.ChipSpec{NumCells: 2000, Seed: 14}, Priority: 9,
		Knobs: Knobs{MaxLevels: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, filler)
	lead, err := s.Submit(chipSpec(400, 15))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := s.Submit(chipSpec(400, 15))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Submit(chipSpec(400, 15))
	if err != nil {
		t.Fatal(err)
	}
	if !f1.Status().Coalesced || !f2.Status().Coalesced {
		t.Fatal("followers did not coalesce onto the queued leader")
	}
	if err := s.Cancel(lead.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, lead, 10*time.Second)
	if lead.State() != StateCanceled {
		t.Fatalf("leader state: got %s, want canceled", lead.State())
	}
	if got := s.Obs().Gauges()["serve.queue.depth"]; got != 1 {
		t.Fatalf("queue depth after canceling queued leader: got %g, want 1 (the promoted follower)", got)
	}
	waitDone(t, f1, 120*time.Second)
	waitDone(t, f2, 120*time.Second)
	if f1.State() != StateDone || f2.State() != StateDone {
		t.Fatalf("follower states: %s, %s", f1.State(), f2.State())
	}
	if ra, rb := mustResult(t, f1), mustResult(t, f2); ra != rb {
		t.Fatal("promoted followers should share one Result")
	}
	late, err := s.Submit(chipSpec(400, 15))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, late, 120*time.Second)
	if late.State() != StateDone {
		t.Fatalf("late duplicate state: got %s, want done", late.State())
	}
	waitDone(t, filler, 120*time.Second)
}

// TestFileSpecConfinedToRoot covers Spec.File confinement: references
// resolve under Options.FileRoot, escapes are rejected, and file
// references are disabled entirely when no root is configured.
func TestFileSpecConfinedToRoot(t *testing.T) {
	root := t.TempDir()
	inst, err := gen.Chip(gen.ChipSpec{NumCells: 300, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chipio.Write(&buf, inst.N, inst.Movebounds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "inst.fbp"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1, FileRoot: root})
	j, err := s.Submit(Spec{File: "inst.fbp"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("file job state: got %s, want done", j.State())
	}
	var se *SpecError
	for _, name := range []string{"../inst.fbp", "/etc/passwd", filepath.Join(root, "inst.fbp")} {
		if _, err := s.Submit(Spec{File: name}); !errors.As(err, &se) {
			t.Errorf("escaping file %q: got %v, want *SpecError", name, err)
		}
	}
	noRoot := testSched(t, Options{Workers: 1})
	if _, err := noRoot.Submit(Spec{File: "inst.fbp"}); !errors.As(err, &se) {
		t.Errorf("file reference without a root: got %v, want *SpecError", err)
	}
}

func TestSubmitAfterShutdownRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := NewScheduler(Options{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(chipSpec(300, 1)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit after shutdown: got %v, want ErrShuttingDown", err)
	}
}
