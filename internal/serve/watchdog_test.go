package serve

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
)

// wdOptions is a scheduler tuned for watchdog tests: one worker, a fast
// governor, and a no-progress window comfortably above the normal
// span-to-span heartbeat cadence (so only injected stalls strike, even
// under -race slowdown).
func wdOptions(strikes int) Options {
	return Options{
		Workers:      1,
		NoProgress:   400 * time.Millisecond,
		StuckStrikes: strikes,
		governTick:   25 * time.Millisecond,
	}
}

// TestWatchdogRequeuesStalledJob stalls one attempt at its first level
// boundary (the serve.stall site, After:1 skips the attempt-start hit).
// The watchdog must strike it, requeue it through the checkpoint path,
// and the resumed run must finish bit-identical to an uninterrupted one.
func TestWatchdogRequeuesStalledJob(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{After: 1, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, wdOptions(3))
	j, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 700, Seed: 51}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: %s (%s), want done", j.State(), j.Status().Error)
	}
	if j.Status().Requeues != 1 {
		t.Fatalf("watchdog requeues: %d, want 1", j.Status().Requeues)
	}
	c := s.Obs().Counters()
	if c["serve.stalls"] != 1 || c["serve.watchdog.strikes"] != 1 || c["serve.watchdog.requeues"] != 1 {
		t.Fatalf("counters: stalls=%g strikes=%g requeues=%g, want 1/1/1",
			c["serve.stalls"], c["serve.watchdog.strikes"], c["serve.watchdog.requeues"])
	}
	// The stall hit the boundary after a completed level, so a snapshot
	// existed and the second attempt resumed rather than restarted.
	if c["serve.resumes"] != 1 {
		t.Fatalf("serve.resumes=%g, want 1 (requeue must resume from the level snapshot)", c["serve.resumes"])
	}
	if ok, err := verifyDirect(context.Background(), j); err != nil || !ok {
		t.Fatalf("watchdog-requeued job differs from a direct run (ok=%v err=%v)", ok, err)
	}
	// The strike is in the degradation log for the operator.
	found := false
	for _, d := range s.Stats().Governance.Degradations {
		if strings.Contains(d, "watchdog") {
			found = true
		}
	}
	if !found {
		t.Fatal("watchdog strike missing from the governance degradation log")
	}
}

// TestWatchdogStuckAfterStrikes wedges every attempt before it completes a
// level (the attempt-start stall hit fires on every attempt): no level
// ever completes, so strikes accumulate — the job must fail terminally
// with JobStuckError after exactly StuckStrikes attempts.
func TestWatchdogStuckAfterStrikes(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, wdOptions(2))
	j, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 300, Seed: 52}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if j.State() != StateFailed {
		t.Fatalf("state: %s, want failed", j.State())
	}
	st := j.Status()
	if !errorTextIsStuck(st.Error) {
		t.Fatalf("terminal error %q does not carry the JobStuck sentinel", st.Error)
	}
	if st.Strikes != 2 {
		t.Fatalf("strikes: %d, want 2", st.Strikes)
	}
	c := s.Obs().Counters()
	if c["serve.watchdog.stuck"] != 1 || c["serve.watchdog.strikes"] != 2 {
		t.Fatalf("counters: stuck=%g strikes=%g, want 1/2", c["serve.watchdog.stuck"], c["serve.watchdog.strikes"])
	}
	// The structured error round-trips through errors.Is.
	stuckErr := &JobStuckError{ID: j.ID, Strikes: 2, Window: s.opt.NoProgress}
	if !errors.Is(stuckErr, ErrJobStuck) {
		t.Fatal("JobStuckError does not unwrap to ErrJobStuck")
	}
}

// TestWatchdogSlowJobNeverStuck is the counter-guarantee: a job that
// stalls at every level boundary but still completes one level per
// attempt keeps resetting its strike counter — it must finish done (with
// several requeues), never JobStuck, however many windows it burns.
func TestWatchdogSlowJobNeverStuck(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	// After:1 skips the attempt-start hit of the first attempt; every
	// later hit (boundary polls and subsequent attempt starts) would
	// stall, except that resumed attempts re-prime the counter sequence:
	// limit the fires so the test bounds its own wall clock.
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{After: 1, Every: 2, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, wdOptions(2))
	j, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 700, Seed: 53}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: %s (%s), want done — advancing jobs must never go stuck", j.State(), j.Status().Error)
	}
	if j.Status().Requeues == 0 {
		t.Fatal("expected at least one watchdog requeue")
	}
	if s.Obs().Counters()["serve.watchdog.stuck"] != 0 {
		t.Fatal("slow-but-advancing job was declared stuck")
	}
	if ok, err := verifyDirect(context.Background(), j); err != nil || !ok {
		t.Fatalf("requeued job differs from a direct run (ok=%v err=%v)", ok, err)
	}
}

// TestWatchdogRequeueWithoutSnapshot pairs a boundary stall with failing
// checkpoint writes: the requeued attempt has no snapshot to resume from,
// restarts fresh, and still produces the bit-identical result (the
// determinism contract), with the fallback recorded.
func TestWatchdogRequeueWithoutSnapshot(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{After: 1, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if err := faultsim.Arm("ckpt.write", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, wdOptions(3))
	j, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 700, Seed: 54}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: %s (%s), want done", j.State(), j.Status().Error)
	}
	if j.Status().Requeues != 1 {
		t.Fatalf("watchdog requeues: %d, want 1", j.Status().Requeues)
	}
	if s.Obs().Counters()["serve.resumes"] != 0 {
		t.Fatal("no snapshot could have been written, yet a resume was counted")
	}
	if ok, err := verifyDirect(context.Background(), j); err != nil || !ok {
		t.Fatalf("fresh-restarted job differs from a direct run (ok=%v err=%v)", ok, err)
	}
}
