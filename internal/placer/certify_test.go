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
// after the global loop of each run it fires on.
func armCorrupt(t *testing.T, sched faultsim.Schedule) {
	t.Helper()
	faultsim.Reset()
	if err := faultsim.Arm("certify.corrupt", sched); err != nil {
		t.Fatal(err)
	}
}

// wantCertifyFailure checks that a run ended with the *certify.Error:
// an uncertified report, no degradation entry (nothing re-ran) and one
// certify.violation on the run's recorder.
func wantCertifyFailure(t *testing.T, rep *Report, err error, rec *obs.Recorder) {
	t.Helper()
	var ce *certify.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want a *certify.Error", err)
	}
	if rep == nil || rep.Certified || len(rep.Degradations) != 0 {
		t.Fatalf("report %+v: want uncertified, no degradations", rep)
	}
	if v := rec.Counters()["certify.violation"]; v != 1 {
		t.Fatalf("certify.violation = %g, want 1", v)
	}
}

// TestCertifyRetryMatchesDefault corrupts one run: the certificate catches
// it and the run ends with the *certify.Error — the placer does not
// re-run. The caller's retry on the original instance, the fault spent,
// is certified and bit-identical to a plain uncertified run, under both
// certify modes and at 1 and 4 workers.
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
				cfg := Config{Movebounds: inst.Movebounds, Workers: workers, Certify: mode, Obs: obs.New(nil)}
				rep, err := Place(inst.N.Clone(), cfg)
				wantCertifyFailure(t, rep, err, cfg.Obs)
				n := inst.N.Clone()
				rep, err = Place(n, cfg)
				if err != nil {
					t.Fatalf("retry: %v", err)
				}
				if !rep.Certified {
					t.Fatal("retry is not certified")
				}
				samePositions(t, "retry vs plain", want, hexPositions(n))
			})
		}
	}
}

// TestCertifyRetryFailsTwice corrupts every run: the first run and the
// caller's retry both end with the *certify.Error.
func TestCertifyRetryFailsTwice(t *testing.T) {
	defer faultsim.Reset()
	armCorrupt(t, faultsim.Schedule{})
	inst := ckptInstances(t)[0]
	for range 2 {
		rec := obs.New(nil)
		rep, err := Place(inst.N.Clone(), Config{Certify: CertifyFinal, Obs: rec})
		wantCertifyFailure(t, rep, err, rec)
	}
}
