package placer

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fbplace/internal/ckpt"
	"fbplace/internal/faultsim"
	"fbplace/internal/fbp"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
	"fbplace/internal/netlist"
	"fbplace/internal/region"
)

// ckptInstances are the synthetic chips the kill-and-resume tests run on:
// one plain, one movebounded (so the config fingerprint and the
// movebound-aware realization paths are both exercised).
func ckptInstances(t *testing.T) []*gen.Instance {
	t.Helper()
	specs := []gen.ChipSpec{
		{Name: "ckpt-plain", NumCells: 600, Seed: 3},
		{Name: "ckpt-mb", NumCells: 900, Seed: 11,
			Movebounds: []gen.MoveboundSpec{
				{Kind: region.Inclusive, CellFraction: 0.2, Density: 0.7, NestedIn: -1},
			}},
	}
	out := make([]*gen.Instance, len(specs))
	for i, spec := range specs {
		inst, err := gen.Chip(spec)
		if err != nil {
			t.Fatalf("gen.Chip(%s): %v", spec.Name, err)
		}
		out[i] = inst
	}
	return out
}

func ckptConfig(inst *gen.Instance, workers int, dir string) Config {
	return Config{Movebounds: inst.Movebounds, Workers: workers,
		Checkpoint: Checkpoint{Dir: dir}}
}

// hexPositions renders the placement as raw float64 bit patterns — the
// oracle for bit-identical comparisons.
func hexPositions(n *netlist.Netlist) []uint64 {
	out := make([]uint64, 0, 2*len(n.X))
	for i := range n.X {
		out = append(out, math.Float64bits(n.X[i]), math.Float64bits(n.Y[i]))
	}
	return out
}

func samePositions(t *testing.T, label string, want, got []uint64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: position count differs: %d vs %d", label, len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: cell %d coordinate %d differs: %016x vs %016x",
				label, i/2, i%2, want[i], got[i])
		}
	}
}

// killAtLevel runs a checkpointed placement armed to panic at the entry of
// level `level`, recovers the injected panic, and returns leaving earlier
// levels' snapshots on disk. extraArm lets callers arm additional sites
// for the killed prefix.
func killAtLevel(t *testing.T, inst *gen.Instance, workers, level int, dir string, extraArm map[string]faultsim.Schedule) {
	t.Helper()
	for name, sched := range extraArm {
		if err := faultsim.Arm(name, sched); err != nil {
			t.Fatal(err)
		}
	}
	// The site's hit h is the entry of level h+1.
	if err := faultsim.Arm("placer.level.fail",
		faultsim.Schedule{After: uint64(level - 1), Limit: 1, Panic: true}); err != nil {
		t.Fatal(err)
	}
	n := inst.N.Clone()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("run survived the level-%d panic", level)
		}
		if _, ok := r.(*faultsim.InjectedError); !ok {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	_, _ = PlaceCtx(context.Background(), n, ckptConfig(inst, workers, dir))
}

// TestKillResumeBitIdentical is the tentpole property: a run killed
// mid-level by an injected panic and resumed from its last checkpoint
// produces, through the rest of the global loop and legalization, exactly
// the placement of an uninterrupted run — every position bit equal — at 1
// and 4 workers on both instances.
func TestKillResumeBitIdentical(t *testing.T) {
	defer faultsim.Reset()
	for _, inst := range ckptInstances(t) {
		for _, workers := range []int{1, 4} {
			faultsim.Reset()
			base := inst.N.Clone()
			baseRep, err := PlaceCtx(context.Background(), base, ckptConfig(inst, workers, ""))
			if err != nil {
				t.Fatalf("%s workers=%d: baseline: %v", inst.Spec.Name, workers, err)
			}
			if baseRep.Levels < 3 {
				t.Fatalf("%s: only %d levels — kill at level 2 would not be mid-run", inst.Spec.Name, baseRep.Levels)
			}

			dir := t.TempDir()
			killAtLevel(t, inst, workers, 2, dir, nil)
			faultsim.Reset()
			gens, err := os.ReadDir(dir)
			if err != nil || len(gens) == 0 {
				t.Fatalf("%s workers=%d: killed run left no checkpoint (%v)", inst.Spec.Name, workers, err)
			}

			res := inst.N.Clone()
			resRep, err := Resume(context.Background(), res, dir, ckptConfig(inst, workers, dir))
			if err != nil {
				t.Fatalf("%s workers=%d: resume: %v", inst.Spec.Name, workers, err)
			}
			label := fmt.Sprintf("%s workers=%d", inst.Spec.Name, workers)
			samePositions(t, label, hexPositions(base), hexPositions(res))
			if baseRep.HPWL != resRep.HPWL {
				t.Fatalf("%s: HPWL differs: %v vs %v", label, baseRep.HPWL, resRep.HPWL)
			}
			if resRep.Levels != baseRep.Levels {
				t.Fatalf("%s: levels differ: %d vs %d", label, baseRep.Levels, resRep.Levels)
			}
			if resRep.QPSolves != baseRep.QPSolves || resRep.CGIters != baseRep.CGIters {
				t.Fatalf("%s: restored QP counters differ: %d/%d vs %d/%d", label,
					resRep.QPSolves, resRep.CGIters, baseRep.QPSolves, baseRep.CGIters)
			}
			if len(resRep.FBPStats) != len(baseRep.FBPStats) {
				t.Fatalf("%s: FBPStats levels differ: %d vs %d", label,
					len(resRep.FBPStats), len(baseRep.FBPStats))
			}
			sameStats(t, label, baseRep.FBPStats, resRep.FBPStats)
		}
	}
}

// sameStats compares every field of each level's fbp.Stats except the
// wall-clock durations, by reflection, so a field the snapshot fails to
// carry through a resume shows up here whatever its name.
func sameStats(t *testing.T, label string, want, got []fbp.Stats) {
	t.Helper()
	durType := reflect.TypeOf(time.Duration(0))
	typ := reflect.TypeOf(fbp.Stats{})
	for lv := range want {
		w, g := reflect.ValueOf(want[lv]), reflect.ValueOf(got[lv])
		for i := 0; i < typ.NumField(); i++ {
			if typ.Field(i).Type == durType {
				continue
			}
			if !reflect.DeepEqual(w.Field(i).Interface(), g.Field(i).Interface()) {
				t.Fatalf("%s: level %d FBPStats.%s differs: %v vs %v", label, lv,
					typ.Field(i).Name, w.Field(i).Interface(), g.Field(i).Interface())
			}
		}
	}
}

// TestResumeRestoresDegradations arms a CG fault so the pre-kill levels
// degrade, kills the run, and checks the resumed report carries the
// pre-crash degradation events verbatim — the snapshot, not the process,
// is the unit of history.
func TestResumeRestoresDegradations(t *testing.T) {
	defer faultsim.Reset()
	leakcheck.Check(t)
	inst := ckptInstances(t)[0]
	// Limit 2 defeats both CG attempts (initial + 4x retry) of exactly one
	// axis solve of the initial QP, producing one pre-kill degradation.
	cgFault := map[string]faultsim.Schedule{"sparse.cg.noconverge": {Limit: 2}}

	faultsim.Reset()
	for name, sched := range cgFault {
		if err := faultsim.Arm(name, sched); err != nil {
			t.Fatal(err)
		}
	}
	base := inst.N.Clone()
	baseRep, err := PlaceCtx(context.Background(), base, ckptConfig(inst, 4, ""))
	if err != nil {
		t.Fatalf("degraded baseline: %v", err)
	}
	if len(baseRep.Degradations) == 0 {
		t.Fatal("baseline recorded no degradation — arming did not bite")
	}

	faultsim.Reset()
	dir := t.TempDir()
	killAtLevel(t, inst, 4, 2, dir, cgFault)
	faultsim.Reset()

	res := inst.N.Clone()
	resRep, err := Resume(context.Background(), res, dir, ckptConfig(inst, 4, dir))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(resRep.Degradations) != len(baseRep.Degradations) {
		t.Fatalf("restored degradations: %v, want %v", resRep.Degradations, baseRep.Degradations)
	}
	for i := range baseRep.Degradations {
		if resRep.Degradations[i] != baseRep.Degradations[i] {
			t.Fatalf("degradation %d differs: %+v vs %+v",
				i, resRep.Degradations[i], baseRep.Degradations[i])
		}
	}
	samePositions(t, "degraded", hexPositions(base), hexPositions(res))
}

// TestResumeTornNewestGeneration tears the newest checkpoint via the
// ckpt.corrupt site, kills the run after it, and checks resume falls back
// to the previous generation (recording the fallback) and still converges
// to the uninterrupted run's exact placement.
func TestResumeTornNewestGeneration(t *testing.T) {
	defer faultsim.Reset()
	inst := ckptInstances(t)[0]
	base := inst.N.Clone()
	if _, err := PlaceCtx(context.Background(), base, ckptConfig(inst, 4, "")); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	dir := t.TempDir()
	// Tear the level-2 snapshot (hit 1), then die at level-3 entry: disk
	// holds generation 1 (good) and generation 2 (torn).
	killAtLevel(t, inst, 4, 3, dir, map[string]faultsim.Schedule{
		"ckpt.corrupt": {After: 1, Limit: 1},
	})
	faultsim.Reset()

	res := inst.N.Clone()
	resRep, err := Resume(context.Background(), res, dir, ckptConfig(inst, 4, dir))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	found := false
	for _, ev := range resRep.Degradations {
		if ev.Stage == "ckpt.fallback" && ev.Fallback == "previous-generation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ckpt.fallback degradation recorded: %v", resRep.Degradations)
	}
	samePositions(t, "torn", hexPositions(base), hexPositions(res))
}

// TestResumeRefusals: a snapshot must never be applied to a different
// circuit or continued under a different configuration.
func TestResumeRefusals(t *testing.T) {
	insts := ckptInstances(t)
	inst := insts[0]
	dir := t.TempDir()
	n := inst.N.Clone()
	if _, err := PlaceCtx(context.Background(), n, ckptConfig(inst, 1, dir)); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}

	var re *ResumeError
	// Different circuit.
	other := insts[1]
	_, err := Resume(context.Background(), other.N.Clone(), dir, ckptConfig(other, 1, dir))
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "netlist fingerprint") {
		t.Fatalf("foreign netlist: want netlist fingerprint refusal, got %v", err)
	}
	// Different configuration.
	cfg := ckptConfig(inst, 1, dir)
	cfg.TargetDensity = 0.9
	_, err = Resume(context.Background(), inst.N.Clone(), dir, cfg)
	if !errors.As(err, &re) || !strings.Contains(re.Reason, "config fingerprint") {
		t.Fatalf("changed config: want config fingerprint refusal, got %v", err)
	}
	// Worker count is excluded from the hash: determinism across workers
	// is a placer guarantee, so resuming with a different count is legal.
	if _, err := Resume(context.Background(), inst.N.Clone(), dir, ckptConfig(inst, 4, t.TempDir())); err != nil {
		t.Fatalf("worker-count change refused: %v", err)
	}
	// Empty and missing directories.
	_, err = Resume(context.Background(), inst.N.Clone(), "", ckptConfig(inst, 1, ""))
	if !errors.As(err, &re) {
		t.Fatalf("empty dir: want *ResumeError, got %v", err)
	}
	_, err = Resume(context.Background(), inst.N.Clone(), t.TempDir(), ckptConfig(inst, 1, ""))
	if !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("no checkpoint: want ErrNoCheckpoint in chain, got %v", err)
	}
}

// TestResumeRefusesVersion1 plants testdata/v1.fbck of internal/ckpt, a
// snapshot written by the version-1 hand codec with an intact frame and
// CRC, as a run's only generation. Load must refuse it with a FormatError
// naming the version, and Resume with a *ResumeError, not guess at it.
func TestResumeRefusesVersion1(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("..", "ckpt", "testdata", "v1.fbck"))
	if err != nil {
		t.Fatal(err)
	}
	// Header: 8-byte magic, version, CRC32 of the payload, payload length.
	if len(v1) < 24 || crc32.ChecksumIEEE(v1[24:]) != binary.LittleEndian.Uint32(v1[12:]) {
		t.Fatal("testdata/v1.fbck: CRC does not match; the fixture is damaged")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000001.fbck"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *ckpt.FormatError
	if _, err := (&ckpt.Store{Dir: dir}).Load(&snapshot{}); !errors.As(err, &fe) || !strings.Contains(fe.Reason, "version 1") {
		t.Fatalf("Load: want a FormatError naming version 1, got %v", err)
	}
	inst := ckptInstances(t)[0]
	var re *ResumeError
	if _, err := Resume(context.Background(), inst.N.Clone(), dir, ckptConfig(inst, 1, dir)); !errors.As(err, &re) {
		t.Fatalf("Resume: want *ResumeError, got %v", err)
	}
}

// TestConfigFingerprintCoversEveryField sets each Config field in turn to
// a non-zero value and requires the fingerprint to change, so a knob added
// without hashing fails here instead of silently resuming (or hitting the
// daemon's result cache) across configurations. The exclusions are the
// fields configFingerprint leaves out by design; they must not change it.
func TestConfigFingerprintCoversEveryField(t *testing.T) {
	excluded := map[string]string{
		"Workers":    "placements are bit-identical across worker counts",
		"Obs":        "recording observes the trajectory, never steers it",
		"Checkpoint": "snapshots are written where the run says; resume reproduces the uninterrupted run",
		"Preempt":    "a preempted-and-resumed run reproduces the uninterrupted one",
		"Certify":    "checks observe the trajectory and the certify re-run repeats it",
	}
	base := ConfigFingerprint(&Config{})
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var cfg Config
		setNonZero(t, reflect.ValueOf(&cfg).Elem().Field(i), f.Name)
		changed := ConfigFingerprint(&cfg) != base
		if reason, ok := excluded[f.Name]; ok {
			if changed {
				t.Errorf("%s is excluded from the fingerprint (%s) but changes it", f.Name, reason)
			}
			delete(excluded, f.Name)
			continue
		}
		if !changed {
			t.Errorf("Config.%s does not change ConfigFingerprint", f.Name)
		}
	}
	for name := range excluded {
		t.Errorf("exclusion list names %s, which is not a Config field", name)
	}
}

// setNonZero gives v a non-zero value of its kind, one that passes
// Validate and differs from the default fill() would apply.
func setNonZero(t *testing.T, v reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(0.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Func:
		v.Set(reflect.MakeFunc(v.Type(), func([]reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			setNonZero(t, v.Field(i), name+"."+v.Type().Field(i).Name)
		}
	default:
		t.Fatalf("Config.%s: no non-zero value for kind %s; extend setNonZero", name, v.Kind())
	}
}

// ckptCancelCtx cancels itself at the first poll after a checkpoint
// generation exists, so cancellation lands deterministically inside the
// level after the first snapshot.
type ckptCancelCtx struct {
	context.Context
	dir string
}

func (c *ckptCancelCtx) Err() error {
	if (&ckpt.Store{Dir: c.dir}).HasSnapshot() {
		return context.Canceled
	}
	return c.Context.Err()
}

// TestResumeAfterCancellation cancels a checkpointed run right after its
// first snapshot lands, plants a torn half-written newer generation (a
// write the cancellation interrupted), and checks the store still resumes
// from the intact previous generation to the uninterrupted placement.
// leakcheck guards the whole kill-and-resume cycle.
func TestResumeAfterCancellation(t *testing.T) {
	defer faultsim.Reset()
	leakcheck.Check(t)
	inst := ckptInstances(t)[0]
	base := inst.N.Clone()
	if _, err := PlaceCtx(context.Background(), base, ckptConfig(inst, 4, "")); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	dir := t.TempDir()
	n := inst.N.Clone()
	_, err := PlaceCtx(&ckptCancelCtx{Context: context.Background(), dir: dir}, n, ckptConfig(inst, 4, dir))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: want context.Canceled, got %v", err)
	}
	gens, err := os.ReadDir(dir)
	if err != nil || len(gens) == 0 {
		t.Fatalf("canceled run left no checkpoint (%v)", err)
	}
	// Plant the write the cancellation interrupted: a half-written newer
	// generation.
	full, err := os.ReadFile(filepath.Join(dir, gens[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000099.fbck"), full[:len(full)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	res := inst.N.Clone()
	resRep, err := Resume(context.Background(), res, dir, ckptConfig(inst, 4, dir))
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	found := false
	for _, ev := range resRep.Degradations {
		if ev.Stage == "ckpt.fallback" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ckpt.fallback recorded: %v", resRep.Degradations)
	}
	samePositions(t, "canceled", hexPositions(base), hexPositions(res))
}

// snapGen returns the newest generation number in dir.
func snapGen(t *testing.T, dir string) uint64 {
	t.Helper()
	store := &ckpt.Store{Dir: dir}
	info, err := store.Load(&snapshot{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return info.Gen
}
