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
// derived from it drops the pair pass while carrying every piece of
// per-run plumbing through unchanged. The
// level-local repair partitions with exactly cfg.Safe().fbpConfig, so
// this is also the config a repaired level runs.
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
	if got.PairPass || got.Workers != 1 {
		t.Fatalf("safe fbp config: PairPass %v, Workers %d; want false, 1", got.PairPass, got.Workers)
	}
	if got.Check != check || got.Obs != rec || got.Ctx != ctx || got.Degrade != dl {
		t.Fatal("safe fbp config dropped Check/Obs/Ctx/Degrade")
	}
	if !got.LocalQP || got.QP.MaxIter != 77 {
		t.Fatalf("safe fbp config changed the local QP: LocalQP %v, MaxIter %d", got.LocalQP, got.QP.MaxIter)
	}

	// The safe derivation differs from the default level config in the
	// pair pass and the worker count only.
	want := cfg.fbpConfig(ctx, dl, check)
	if !want.PairPass {
		t.Fatal("default fbp config has no pair pass")
	}
	want.PairPass, want.Workers = false, 1
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("safe fbp config %+v differs from the default beyond PairPass and Workers: want %+v", got, want)
	}

	// Without per-level certification the checker is a nil interface, not
	// a typed nil the realization would call into.
	if c := safe.fbpConfig(ctx, dl, nil); c.Check != nil {
		t.Fatalf("Check = %#v without a checker, want nil", c.Check)
	}
}
