package placer

import (
	"errors"
	"fmt"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
)

// armCorrupt arms the certify.corrupt site, which flips one position
// after the global loop of each attempt it fires on.
func armCorrupt(t *testing.T, sched faultsim.Schedule) {
	t.Helper()
	faultsim.Reset()
	if err := faultsim.Arm("certify.corrupt", sched); err != nil {
		t.Fatal(err)
	}
}

// repairEvents counts the run's certify re-runs on its report.
func repairEvents(t *testing.T, rep *Report) int {
	t.Helper()
	if rep == nil {
		t.Fatal("no report")
	}
	k := 0
	for _, d := range rep.Degradations {
		if d.Stage != "certify" {
			continue
		}
		if d.Fallback != "safe-mode" {
			t.Fatalf("certify degradation %+v, want fallback safe-mode", d)
		}
		k++
	}
	return k
}

func wantCertifyCounters(t *testing.T, rec *obs.Recorder, fail, repair float64) {
	t.Helper()
	c := rec.Counters()
	if c["certify.fail"] != fail || c["certify.repair"] != repair {
		t.Fatalf("certify.fail/repair = %g/%g, want %g/%g", c["certify.fail"], c["certify.repair"], fail, repair)
	}
}

// TestCertifyRetryMatchesDefault corrupts the first attempt only: the
// final certificate catches it, the placement re-runs once, and the
// repaired positions are bit-identical to a plain uncertified run —
// under both certify modes and at 1 and 4 workers.
func TestCertifyRetryMatchesDefault(t *testing.T) {
	defer faultsim.Reset()
	inst := ckptInstances(t)[1]
	ref := inst.N.Clone()
	if _, err := Place(ref, Config{Movebounds: inst.Movebounds, Workers: 4}); err != nil {
		t.Fatalf("plain run: %v", err)
	}
	want := hexPositions(ref)
	modes := []struct {
		name string
		mode CertifyMode
	}{{"final", CertifyFinal}, {"every-level", CertifyEveryLevel}}
	for _, m := range modes {
		for _, workers := range []int{1, 4} {
			mode := m.mode
			t.Run(fmt.Sprintf("%s/workers=%d", m.name, workers), func(t *testing.T) {
				armCorrupt(t, faultsim.Schedule{Limit: 1})
				rec := obs.New(nil)
				n := inst.N.Clone()
				rep, err := Place(n, Config{Movebounds: inst.Movebounds, Workers: workers, Certify: mode, Obs: rec})
				if err != nil {
					t.Fatalf("repaired run: %v", err)
				}
				if !rep.Certified {
					t.Fatal("repaired run is not certified")
				}
				if k := repairEvents(t, rep); k != 1 {
					t.Fatalf("%d certify -> safe-mode events, want 1", k)
				}
				wantCertifyCounters(t, rec, 1, 1)
				samePositions(t, "repaired vs plain", want, hexPositions(n))
			})
		}
	}
}

// TestCertifyRetryFailsTwice corrupts every attempt: the one re-run fails
// certification too and its *certify.Error reaches the caller — there is
// no second repair.
func TestCertifyRetryFailsTwice(t *testing.T) {
	defer faultsim.Reset()
	armCorrupt(t, faultsim.Schedule{})
	inst := ckptInstances(t)[0]
	rec := obs.New(nil)
	rep, err := Place(inst.N, Config{Certify: CertifyFinal, Obs: rec})
	var ce *certify.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *certify.Error", err)
	}
	if k := repairEvents(t, rep); k != 1 {
		t.Fatalf("%d certify -> safe-mode events, want 1", k)
	}
	wantCertifyCounters(t, rec, 2, 1)
}

// TestCertifyRetrySkipsCheckpointAndPreempt runs a checkpointed,
// preemptible placement whose first attempt is corrupted: the re-run
// polls Preempt never and writes no snapshot, so both the poll count and
// the newest snapshot generation match a fault-free run's, as do the
// positions.
func TestCertifyRetrySkipsCheckpointAndPreempt(t *testing.T) {
	defer faultsim.Reset()
	inst := ckptInstances(t)[0]

	plainDir := t.TempDir()
	plainPolls := 0
	cfg := ckptConfig(inst, 4, plainDir)
	cfg.Preempt = func() bool { plainPolls++; return false }
	plain := inst.N.Clone()
	plainRep, err := Place(plain, cfg)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	if plainPolls != plainRep.Levels {
		t.Fatalf("plain run polled Preempt %d times over %d levels", plainPolls, plainRep.Levels)
	}

	armCorrupt(t, faultsim.Schedule{Limit: 1})
	dir := t.TempDir()
	polls := 0
	cfg = ckptConfig(inst, 4, dir)
	cfg.Certify = CertifyFinal
	cfg.Preempt = func() bool { polls++; return false }
	n := inst.N.Clone()
	rep, err := Place(n, cfg)
	if err != nil {
		t.Fatalf("repaired run: %v", err)
	}
	if k := repairEvents(t, rep); k != 1 {
		t.Fatalf("%d certify -> safe-mode events, want 1", k)
	}
	if polls != plainPolls {
		t.Fatalf("Preempt polled %d times, want %d (first attempt only)", polls, plainPolls)
	}
	if got, want := snapGen(t, dir), snapGen(t, plainDir); got != want {
		t.Fatalf("newest snapshot generation %d, want %d (the re-run must not checkpoint)", got, want)
	}
	samePositions(t, "repaired vs plain", hexPositions(plain), hexPositions(n))
}
