package placer

import (
	"context"
	"reflect"
	"testing"

	"fbplace/internal/certify"
	"fbplace/internal/degrade"
	"fbplace/internal/obs"
	"fbplace/internal/qp"
)

// TestSafeDerivation pins the single definition of safe mode: Config.Safe
// makes the run sequential and unsnapshotted, and the FBP level config
// derived from it equals the default one except for the worker count,
// carrying every piece of per-run plumbing through unchanged. The
// level-local repair partitions with exactly cfg.Safe().fbpConfig, so
// this is also the config a repaired level runs. Neither SafeMode nor
// Workers steers the trajectory, so neither enters the fingerprint.
func TestSafeDerivation(t *testing.T) {
	rec := obs.New(nil)
	cfg := Config{
		Workers:    4,
		Checkpoint: Checkpoint{Dir: "snapshots", EveryLevel: 2},
		Preempt:    func() bool { return false },
		Obs:        rec,
		QP:         qp.Options{MaxIter: 77, Obs: rec},
	}
	safe := cfg.Safe()
	if !safe.SafeMode || safe.Workers != 1 || safe.Checkpoint != (Checkpoint{}) || safe.Preempt != nil {
		t.Fatalf("Safe() = SafeMode %v, Workers %d, Checkpoint %+v, Preempt set %v; want true, 1, zero, false",
			safe.SafeMode, safe.Workers, safe.Checkpoint, safe.Preempt != nil)
	}
	if cfg.SafeMode || cfg.Workers != 4 || cfg.Checkpoint.Dir == "" || cfg.Preempt == nil {
		t.Fatal("Safe() modified its receiver")
	}

	ctx := context.Background()
	dl := degrade.New(rec)
	check := &certify.Checker{Obs: rec, Ctx: ctx, Level: 3}
	got := safe.fbpConfig(ctx, dl, check)
	if got.Check != check || got.Obs != rec || got.Ctx != ctx || got.Degrade != dl {
		t.Fatal("safe fbp config dropped Check/Obs/Ctx/Degrade")
	}
	want := cfg.fbpConfig(ctx, dl, check)
	want.Workers = 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("safe fbp config %+v differs from the default beyond Workers: want %+v", got, want)
	}
	if !got.LocalQP || got.QP.MaxIter != 77 {
		t.Fatalf("fbp config LocalQP %v, QP.MaxIter %d; want true, 77", got.LocalQP, got.QP.MaxIter)
	}
	if ConfigFingerprint(&safe) != ConfigFingerprint(&cfg) {
		t.Fatal("ConfigFingerprint depends on SafeMode or Workers")
	}

	// Without per-level certification the checker is a nil interface, not
	// a typed nil the realization would call into.
	if c := safe.fbpConfig(ctx, dl, nil); c.Check != nil {
		t.Fatalf("Check = %#v without a checker, want nil", c.Check)
	}
}
