package ckpt

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/fbp"
	"fbplace/internal/gen"
	"fbplace/internal/obs"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		NetlistFP:     0xdeadbeefcafe,
		ConfigFP:      0x1234567890ab,
		Level:         3,
		Levels:        6,
		X:             []float64{1.5, -2.25, math.SmallestNonzeroFloat64, 0},
		Y:             []float64{0, 1e300, -0.0, 42},
		QPSolves:      17,
		CGIters:       991,
		Relaxations:   2,
		GlobalElapsed: 1234 * time.Millisecond,
		FBPStats: []fbp.Stats{
			{NumNodes: 10, NumArcs: 20, NumWindows: 4, NumRegions: 16,
				NumExternals: 3, BuildTime: time.Millisecond, SolveTime: 2 * time.Millisecond,
				RealizeTime: 3 * time.Millisecond, Waves: 2, NSPivots: 55,
				LocalQPSolves: 7, LocalCGIters: 70},
			{NumNodes: 40, Waves: 1},
		},
		Degradations: []degrade.Event{
			{Stage: "qp.cg", Fallback: "anchor-solution", Detail: "injected"},
			{Stage: "flow.ns", Fallback: "ssp", Detail: "stall"},
		},
	}
}

func snapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.NetlistFP != got.NetlistFP || want.ConfigFP != got.ConfigFP {
		t.Fatalf("fingerprints: want %x/%x, got %x/%x", want.NetlistFP, want.ConfigFP, got.NetlistFP, got.ConfigFP)
	}
	if want.Level != got.Level || want.Levels != got.Levels {
		t.Fatalf("levels: want %d/%d, got %d/%d", want.Level, want.Levels, got.Level, got.Levels)
	}
	if want.QPSolves != got.QPSolves || want.CGIters != got.CGIters || want.Relaxations != got.Relaxations {
		t.Fatalf("counters differ: want %+v, got %+v", want, got)
	}
	if want.GlobalElapsed != got.GlobalElapsed {
		t.Fatalf("elapsed: want %v, got %v", want.GlobalElapsed, got.GlobalElapsed)
	}
	if len(want.X) != len(got.X) || len(want.Y) != len(got.Y) {
		t.Fatalf("positions: want %d/%d, got %d/%d", len(want.X), len(want.Y), len(got.X), len(got.Y))
	}
	for i := range want.X {
		if math.Float64bits(want.X[i]) != math.Float64bits(got.X[i]) ||
			math.Float64bits(want.Y[i]) != math.Float64bits(got.Y[i]) {
			t.Fatalf("cell %d: want (%x,%x), got (%x,%x)", i,
				math.Float64bits(want.X[i]), math.Float64bits(want.Y[i]),
				math.Float64bits(got.X[i]), math.Float64bits(got.Y[i]))
		}
	}
	if len(want.FBPStats) != len(got.FBPStats) {
		t.Fatalf("stats: want %d, got %d", len(want.FBPStats), len(got.FBPStats))
	}
	for i := range want.FBPStats {
		if want.FBPStats[i] != got.FBPStats[i] {
			t.Fatalf("stats[%d]: want %+v, got %+v", i, want.FBPStats[i], got.FBPStats[i])
		}
	}
	if len(want.Degradations) != len(got.Degradations) {
		t.Fatalf("degradations: want %d, got %d", len(want.Degradations), len(got.Degradations))
	}
	for i := range want.Degradations {
		if want.Degradations[i] != got.Degradations[i] {
			t.Fatalf("degradation[%d]: want %+v, got %+v", i, want.Degradations[i], got.Degradations[i])
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	store := &Store{Dir: t.TempDir()}
	want := sampleSnapshot()
	if err := store.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, info, err := store.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if info.FellBack {
		t.Fatalf("unexpected fallback: %+v", info)
	}
	if info.Gen != 1 {
		t.Fatalf("generation: want 1, got %d", info.Gen)
	}
	snapshotsEqual(t, want, got)
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	store := &Store{Dir: t.TempDir()}
	want := &Snapshot{Level: 1, Levels: 1}
	if err := store.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, _, err := store.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	snapshotsEqual(t, want, got)
}

func TestLoadNoCheckpoint(t *testing.T) {
	store := &Store{Dir: filepath.Join(t.TempDir(), "nonexistent")}
	_, _, err := store.Load()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: want ErrNoCheckpoint, got %v", err)
	}
	store = &Store{Dir: t.TempDir()}
	_, _, err = store.Load()
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: want ErrNoCheckpoint, got %v", err)
	}
}

func TestGenerationRotation(t *testing.T) {
	store := &Store{Dir: t.TempDir()}
	for lv := 1; lv <= 5; lv++ {
		snap := sampleSnapshot()
		snap.Level = lv
		if err := store.Save(snap); err != nil {
			t.Fatalf("Save level %d: %v", lv, err)
		}
	}
	gens, err := store.generations()
	if err != nil {
		t.Fatalf("generations: %v", err)
	}
	if len(gens) != 2 {
		t.Fatalf("want 2 retained generations, got %d", len(gens))
	}
	if gens[0].gen != 5 || gens[1].gen != 4 {
		t.Fatalf("want generations 5,4, got %d,%d", gens[0].gen, gens[1].gen)
	}
	got, _, err := store.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Level != 5 {
		t.Fatalf("want newest snapshot (level 5), got level %d", got.Level)
	}
}

// TestTruncationFallsBack corrupts the newest generation at every possible
// truncation length and checks the loader falls back to the previous
// generation without ever panicking.
func TestTruncationFallsBack(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: dir}
	old := sampleSnapshot()
	old.Level = 1
	if err := store.Save(old); err != nil {
		t.Fatalf("Save old: %v", err)
	}
	fresh := sampleSnapshot()
	fresh.Level = 2
	if err := store.Save(fresh); err != nil {
		t.Fatalf("Save fresh: %v", err)
	}
	newest := filepath.Join(dir, "ckpt-00000002.fbck")
	full, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read newest: %v", err)
	}
	// Sampling every 7th length keeps the test fast while still covering
	// header, count and string boundaries.
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(newest, full[:cut], 0o644); err != nil {
			t.Fatalf("truncate to %d: %v", cut, err)
		}
		got, info, lerr := store.Load()
		if lerr != nil {
			t.Fatalf("cut %d: Load failed entirely: %v", cut, lerr)
		}
		if !info.FellBack {
			t.Fatalf("cut %d: loader accepted a truncated snapshot", cut)
		}
		if info.Detail == "" {
			t.Fatalf("cut %d: fallback without detail", cut)
		}
		if got.Level != 1 {
			t.Fatalf("cut %d: want fallback snapshot level 1, got %d", cut, got.Level)
		}
	}
}

// TestBitFlipRejected flips single bytes across the payload and checks the
// CRC catches them.
func TestBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: dir}
	if err := store.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, "ckpt-00000001.fbck")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	header := len(magic) + 16
	for pos := header; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, _, lerr := store.Load()
		var fe *FormatError
		if lerr == nil || !errors.As(lerr, &fe) {
			t.Fatalf("flip at %d: want FormatError, got %v", pos, lerr)
		}
		if !strings.Contains(fe.Reason, "CRC") {
			t.Fatalf("flip at %d: want CRC rejection, got %q", pos, fe.Reason)
		}
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: dir}
	if err := store.Save(sampleSnapshot()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	path := filepath.Join(dir, "ckpt-00000001.fbck")
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	full[len(magic)] = 0xff // version field
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	_, _, lerr := store.Load()
	var fe *FormatError
	if lerr == nil || !errors.As(lerr, &fe) || !strings.Contains(fe.Reason, "version") {
		t.Fatalf("want version FormatError, got %v", lerr)
	}
}

func TestWriteFaultInjection(t *testing.T) {
	defer faultsim.Reset()
	store := &Store{Dir: t.TempDir()}
	if err := faultsim.Arm("ckpt.write", faultsim.Schedule{}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	err := store.Save(sampleSnapshot())
	var inj *faultsim.InjectedError
	if err == nil || !errors.As(err, &inj) {
		t.Fatalf("want InjectedError, got %v", err)
	}
	if entries, _ := os.ReadDir(store.Dir); len(entries) != 0 {
		t.Fatalf("failed Save touched the store: %v", entries)
	}
}

func TestCorruptFaultTearsWrite(t *testing.T) {
	defer faultsim.Reset()
	store := &Store{Dir: t.TempDir()}
	good := sampleSnapshot()
	good.Level = 1
	if err := store.Save(good); err != nil {
		t.Fatalf("Save good: %v", err)
	}
	// Arm after the first save so only the second generation is torn.
	if err := faultsim.Arm("ckpt.corrupt", faultsim.Schedule{}); err != nil {
		t.Fatalf("Arm: %v", err)
	}
	torn := sampleSnapshot()
	torn.Level = 2
	if err := store.Save(torn); err != nil {
		t.Fatalf("torn Save should still report success, got %v", err)
	}
	faultsim.Reset()
	got, info, err := store.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !info.FellBack {
		t.Fatal("loader accepted the torn generation")
	}
	if got.Level != 1 {
		t.Fatalf("want previous generation (level 1), got level %d", got.Level)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	mk := func(seed int64) *gen.Instance {
		c, err := gen.Chip(gen.ChipSpec{Name: "fp", NumCells: 200, Seed: seed})
		if err != nil {
			t.Fatalf("gen.Chip: %v", err)
		}
		return c
	}
	a, b := mk(1), mk(1)
	if Fingerprint(a.N) != Fingerprint(b.N) {
		t.Fatal("identical instances fingerprint differently")
	}
	// Positions are excluded: moving a cell must not change the identity.
	b.N.X[0] += 100
	if Fingerprint(a.N) != Fingerprint(b.N) {
		t.Fatal("fingerprint depends on positions")
	}
	// Structure is included: a different seed or a mutated weight must.
	other := mk(2)
	if Fingerprint(a.N) == Fingerprint(other.N) {
		t.Fatal("different instances share a fingerprint")
	}
	b.N.Nets[0].Weight *= 2
	if Fingerprint(a.N) == Fingerprint(b.N) {
		t.Fatal("net weight change not reflected in fingerprint")
	}
}

// TestGC covers the standalone collector the serve disk governor uses on
// stores that stopped saving: it prunes to the newest keepGenerations,
// the survivors are the newest, and a store that never saved is a no-op,
// not an error.
func TestGC(t *testing.T) {
	store := &Store{Dir: t.TempDir(), Obs: obs.New(nil)}
	for i := 0; i < 6; i++ {
		snap := sampleSnapshot()
		snap.Level = i
		if err := store.Save(snap); err != nil {
			t.Fatalf("Save %d: %v", i, err)
		}
	}
	// Save already pruned to keepGenerations (5 and 6). Surplus older
	// generations, as a store holds when Save stopped pruning (a crash
	// between rename and prune), are written directly.
	for g := 1; g <= 4; g++ {
		name := filepath.Join(store.Dir, fmt.Sprintf("%s%08d%s", genPrefix, g, genSuffix))
		if err := os.WriteFile(name, []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := store.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 4 {
		t.Fatalf("GC removed %d generations, want 4", removed)
	}
	ents, err := os.ReadDir(store.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != keepGenerations {
		t.Fatalf("%d files survive GC, want %d", len(ents), keepGenerations)
	}
	// The newest generation survived: Load restores the last save.
	got, info, err := store.Load()
	if err != nil {
		t.Fatalf("Load after GC: %v", err)
	}
	if info.FellBack || got.Level != 5 {
		t.Fatalf("Load after GC: level=%d fellback=%v, want the newest generation (5)", got.Level, info.FellBack)
	}
	if n := store.Obs.Counter("ckpt.gc"); n != 4 {
		t.Fatalf("ckpt.gc counter = %g, want 4", n)
	}

	// Already pruned: a second collection removes nothing.
	if removed, err = store.GC(); err != nil || removed != 0 {
		t.Fatalf("second GC: removed=%d err=%v, want 0/nil", removed, err)
	}

	// A store whose directory never existed has nothing to collect.
	empty := &Store{Dir: filepath.Join(t.TempDir(), "never-saved")}
	if removed, err = empty.GC(); err != nil || removed != 0 {
		t.Fatalf("GC on missing dir: removed=%d err=%v, want 0/nil", removed, err)
	}
}
