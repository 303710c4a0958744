package serve

import (
	"context"
	"fmt"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/leakcheck"
)

// TestChaosSoak is the overload-protection gate: a sustained mixed load
// (gen.SoakMix: verbatim duplicates, movebounds, oversized over-budget
// bait) under a tight memory budget, a bounded queue, an armed fault
// storm (checkpoint writes fail and corrupt, admissions bounce, attempts
// stall) and a fast governor. The service must shed, not crash: every
// accepted job reaches a terminal state, preempted and watchdog-requeued
// jobs finish bit-identical to uninterrupted runs, no goroutine leaks,
// and a fresh submit/result round-trip works after the storm. Runs at 1
// and 4 workers; every schedule is deterministic.
func TestChaosSoak(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			runChaosSoak(t, workers)
		})
	}
}

func runChaosSoak(t *testing.T, workers int) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	arm := func(name string, sched faultsim.Schedule) {
		t.Helper()
		if err := faultsim.Arm(name, sched); err != nil {
			t.Fatal(err)
		}
	}
	arm("ckpt.write", faultsim.Schedule{Prob: 0.2, Seed: 7})
	arm("ckpt.corrupt", faultsim.Schedule{Prob: 0.2, Seed: 8})
	arm("serve.accept", faultsim.Schedule{Every: 7})
	// Two stalls, placed deterministically mid-run; each earns exactly one
	// watchdog strike and a requeue (the strike budget of 3 is never hit).
	arm("serve.stall", faultsim.Schedule{After: 3, Every: 9, Limit: 2})
	// Two silent corruptions. Certification (enabled below) must catch
	// both: each fails its job terminally as result_uncertified, and
	// nothing corrupt is served.
	arm("certify.corrupt", faultsim.Schedule{Limit: 2})

	// Budget sized to the soak mix: two mid-size jobs fit, more contend —
	// so start gating engages and memory-blocked jobs wait for a running
	// one to finish — and the 60k-cell bait jobs are over budget outright.
	est := estOf(t, chipSpec(1400, 1))
	budget := est.PeakBytes*2 + est.PeakBytes/5

	// The no-progress window must stay comfortably above the heartbeat
	// cadence of a healthy job, or slow-but-advancing jobs earn spurious
	// strikes; the race detector slows placement enough to need a wider
	// window.
	noProgress := time.Second
	if raceEnabled {
		noProgress = 5 * time.Second
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadOptions{
		Jobs:       28,
		Seed:       int64(workers),
		Duplicates: 5,
		Verify:     true,
		Stagger:    50 * time.Millisecond,
		Soak:       true,
		Sched: Options{
			Workers:        workers,
			StateDir:       t.TempDir(),
			MemBudget:      budget,
			QueueLimit:     6,
			NoProgress:     noProgress,
			StuckStrikes:   3,
			governTick:     30 * time.Millisecond,
			GCKeepTerminal: 8,
			Certify:        true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)

	// Sheds, not crashes: rejections happened (bait + admission faults +
	// possibly a full queue), and every accepted job is terminal.
	if rep.Rejected == 0 {
		t.Fatal("soak produced no rejections with bait jobs and admission faults armed")
	}
	if len(rep.NonTerminal) > 0 {
		t.Fatalf("non-terminal jobs after drain: %v", rep.NonTerminal)
	}
	if rep.Done+rep.Failed != rep.Submitted || rep.Stuck != 0 {
		t.Fatalf("%d of %d accepted jobs done (%d failed, %d canceled, %d stuck)",
			rep.Done, rep.Submitted, rep.Failed, rep.Canceled, rep.Stuck)
	}
	if len(rep.Mismatched) > 0 {
		t.Fatalf("bit-identity broken under chaos: %v", rep.Mismatched)
	}
	c := rep.Counters
	if c["serve.rejected.overbudget"] == 0 {
		t.Fatal("no over-budget rejection: the 60k-cell bait jobs were admitted")
	}
	// Every stall earns exactly one strike. How the canceled attempt
	// resolves depends on the interleaving — a victim that was also asked
	// to yield exits through the preemption path instead of the watchdog
	// requeue — so the recovery paths are asserted in the dedicated
	// watchdog tests, and here only that both stalls were caught. Under
	// the race detector extreme slowdowns can add strikes on healthy jobs
	// (harmless — completed levels reset them), so only the floor holds.
	if c["serve.stalls"] != 2 {
		t.Fatalf("serve.stalls=%g, want 2 (fault limit)", c["serve.stalls"])
	}
	if strikes := c["serve.watchdog.strikes"]; strikes < 2 || (!raceEnabled && strikes != 2) {
		t.Fatalf("stall accounting: strikes=%g, want exactly 2 (at least 2 under -race)", strikes)
	}
	if c["serve.watchdog.stuck"] != 0 {
		t.Fatalf("serve.watchdog.stuck=%g with a strike budget the stalls cannot reach", c["serve.watchdog.stuck"])
	}
	// Both injected corruptions were caught, and each failed its job.
	if c["certify.fail"] != 2 || c["certify.uncertified"] != 2 || c["certify.repair"] != 0 {
		t.Fatalf("certify accounting: fail=%g uncertified=%g repair=%g, want 2/2/0",
			c["certify.fail"], c["certify.uncertified"], c["certify.repair"])
	}
	// certify.uncertified counts each job that failed terminally with the
	// result_uncertified code once, so equality means every failed job
	// carries that code: certification is the only way a job may fail.
	if u := c["certify.uncertified"]; float64(rep.Failed) != u {
		t.Fatalf("%d failed jobs, certify.uncertified=%g: want equal", rep.Failed, u)
	}

	// Post-soak round trip on a fresh scheduler with the faults disarmed:
	// the service is fully functional after the storm.
	faultsim.Reset()
	s := testSched(t, Options{Workers: 1})
	j, err := s.Submit(chipSpec(500, 99))
	if err != nil {
		t.Fatalf("post-soak submit: %v", err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("post-soak job state: %s (%s)", j.State(), j.Status().Error)
	}
	mustResult(t, j)
}
