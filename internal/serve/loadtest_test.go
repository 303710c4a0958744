package serve

import (
	"context"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
)

// TestLoadMixedPriorities is the load-test satellite: a burst of
// mixed-size, mixed-priority jobs with duplicates on a small pool. Every
// job must reach a terminal state, preempted jobs must match their
// uninterrupted placements bit-for-bit, and no worker goroutine may leak.
func TestLoadMixedPriorities(t *testing.T) {
	defer leakcheck.Check(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadOptions{
		Jobs:       10,
		Seed:       42,
		Duplicates: 3,
		Verify:     true,
		Sched:      Options{Workers: 2, StateDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Rejected != 0 {
		t.Fatalf("%d submissions rejected with no faults armed", rep.Rejected)
	}
	if rep.Done != rep.Submitted {
		t.Fatalf("%d of %d jobs done (%d failed, %d canceled, %d stuck)",
			rep.Done, rep.Submitted, rep.Failed, rep.Canceled, len(rep.NonTerminal))
	}
	if len(rep.Mismatched) > 0 {
		t.Fatalf("preempted jobs broke bit-identity: %v", rep.Mismatched)
	}
	if rep.CacheHits+rep.Coalesced == 0 {
		t.Fatal("duplicates produced neither cache hits nor coalesced jobs")
	}
}

// TestLoadUnderCheckpointFaults re-runs the load with the checkpoint
// write/corrupt sites firing probabilistically: snapshots fail, but
// placements degrade gracefully — every job still terminates, served
// results still match direct runs.
func TestLoadUnderCheckpointFaults(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("ckpt.write", faultsim.Schedule{Prob: 0.3, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	if err := faultsim.Arm("ckpt.corrupt", faultsim.Schedule{Prob: 0.3, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadOptions{
		Jobs:   8,
		Seed:   43,
		Verify: true,
		Sched:  Options{Workers: 2, StateDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Done != rep.Submitted {
		t.Fatalf("%d of %d jobs done under checkpoint faults (%d failed, %d canceled, %d stuck)",
			rep.Done, rep.Submitted, rep.Failed, rep.Canceled, len(rep.NonTerminal))
	}
	if len(rep.Mismatched) > 0 {
		t.Fatalf("checkpoint faults broke bit-identity: %v", rep.Mismatched)
	}
}

// TestLoadUnderAdmissionFaults arms the serve.accept site so a fraction of
// submissions bounce with a structured error; the admitted jobs must be
// unaffected.
func TestLoadUnderAdmissionFaults(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.accept", faultsim.Schedule{Every: 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadOptions{
		Jobs:  9,
		Seed:  44,
		Sched: Options{Workers: 2, StateDir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep)
	if rep.Rejected == 0 {
		t.Fatal("serve.accept armed on every 3rd hit but nothing was rejected")
	}
	if fired := faultsim.Fired("serve.accept"); int(fired) != rep.Rejected {
		t.Fatalf("rejections (%d) disagree with injected faults (%d)", rep.Rejected, fired)
	}
	if rep.Done != rep.Submitted {
		t.Fatalf("%d of %d admitted jobs done (%d failed, %d canceled, %d stuck)",
			rep.Done, rep.Submitted, rep.Failed, rep.Canceled, len(rep.NonTerminal))
	}
}

// TestPreemptionSnapshotFailureKeepsVictimRunning is the degradation
// contract: when the preemption snapshot cannot be written, the victim is
// NOT killed — preemption is skipped, the victim runs to completion, and
// the skip is recorded in the degradation log.
func TestPreemptionSnapshotFailureKeepsVictimRunning(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	// Every snapshot write fails: per-level checkpoints and the preemption
	// snapshot alike.
	if err := faultsim.Arm("ckpt.write", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1})
	victim, err := s.Submit(Spec{
		Chip:  &gen.ChipSpec{NumCells: 2000, Seed: 31},
		Knobs: Knobs{MaxLevels: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitLevel(t, victim)
	hi, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 300, Seed: 32}, Priority: 5})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, victim, 120*time.Second)
	waitDone(t, hi, 120*time.Second)
	if victim.State() != StateDone || hi.State() != StateDone {
		t.Fatalf("states: victim=%s hi=%s, want both done", victim.State(), hi.State())
	}
	if victim.Status().Preemptions != 0 {
		t.Fatalf("victim recorded %d preemptions; a failed snapshot must keep it running", victim.Status().Preemptions)
	}
	res := mustResult(t, victim)
	kept := false
	for _, d := range res.Degradations {
		if d.Stage == "preempt" && d.Fallback == "kept-running" {
			kept = true
		}
	}
	if !kept {
		t.Fatalf("degradation log missing preempt->kept-running: %+v", res.Degradations)
	}
	// The victim's run was effectively uninterrupted; its placement must
	// still match a direct run.
	if ok, err := verifyDirect(context.Background(), victim); err != nil || !ok {
		t.Fatalf("kept-running victim differs from direct run (ok=%v err=%v)", ok, err)
	}
}
