package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/obs"
)

// The store is format-agnostic, so its tests use their own snapshot type
// rather than the placer's. testSnap carries the values a bit-exact
// restore must keep: -0, the smallest subnormal and a NaN with a payload.
type testStat struct {
	Nodes, Waves int
	Build        time.Duration
	Solves       int64
}

type testEvent struct{ Stage, Fallback, Detail string }

type testSnap struct {
	FP      uint64
	Level   int
	X, Y    []float64
	Elapsed time.Duration
	Stats   []testStat
	Events  []testEvent
}

// nanPayload is a quiet NaN with a non-default mantissa payload.
var nanPayload = math.Float64frombits(0x7ff8_0000_dead_beef)

func sampleSnapshot() *testSnap {
	return &testSnap{
		FP:      0xdeadbeefcafe,
		Level:   3,
		X:       []float64{1.5, -2.25, math.SmallestNonzeroFloat64, math.Copysign(0, -1), nanPayload},
		Y:       []float64{0, 1e300, math.Copysign(0, -1), 42, math.Inf(-1)},
		Elapsed: 1234 * time.Millisecond,
		Stats: []testStat{
			{Nodes: 10, Waves: 2, Build: time.Millisecond, Solves: 7},
			{Nodes: 40, Waves: 1},
		},
		Events: []testEvent{
			{Stage: "qp.cg", Fallback: "anchor-solution", Detail: "injected"},
			{Stage: "flow.ns", Fallback: "ssp", Detail: "stall"},
		},
	}
}

func snapshotsEqual(t *testing.T, want, got *testSnap) {
	t.Helper()
	if want.FP != got.FP || want.Level != got.Level || want.Elapsed != got.Elapsed {
		t.Fatalf("scalars: want %x/%d/%v, got %x/%d/%v", want.FP, want.Level, want.Elapsed, got.FP, got.Level, got.Elapsed)
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
	if len(want.Stats) != len(got.Stats) {
		t.Fatalf("stats: want %d, got %d", len(want.Stats), len(got.Stats))
	}
	for i := range want.Stats {
		if want.Stats[i] != got.Stats[i] {
			t.Fatalf("stats[%d]: want %+v, got %+v", i, want.Stats[i], got.Stats[i])
		}
	}
	if len(want.Events) != len(got.Events) {
		t.Fatalf("events: want %d, got %d", len(want.Events), len(got.Events))
	}
	for i := range want.Events {
		if want.Events[i] != got.Events[i] {
			t.Fatalf("event[%d]: want %+v, got %+v", i, want.Events[i], got.Events[i])
		}
	}
}

// frame wraps payload in a snapshot file header of the given version,
// with a matching length and CRC.
func frame(version uint32, payload []byte) []byte {
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint32(b, version)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	return append(b, payload...)
}

// savedFile returns the file image Save writes for v.
func savedFile(tb testing.TB, v any) []byte {
	tb.Helper()
	store := &Store{Dir: tb.TempDir()}
	if err := store.Save(v); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(store.Dir, "ckpt-00000001.fbck"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

func TestSnapshotRoundTrip(t *testing.T) {
	store := &Store{Dir: t.TempDir()}
	want := sampleSnapshot()
	if err := store.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got := &testSnap{}
	info, err := store.Load(got)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if info.FellBack {
		t.Fatalf("unexpected fallback: %+v", info)
	}
	if info.Gen != 1 {
		t.Fatalf("generation: want 1, got %d", info.Gen)
	}
	if !store.HasSnapshot() {
		t.Fatal("HasSnapshot false after a Save")
	}
	snapshotsEqual(t, want, got)
}

func TestEmptySnapshotRoundTrip(t *testing.T) {
	store := &Store{Dir: t.TempDir()}
	want := &testSnap{Level: 1}
	if err := store.Save(want); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got := &testSnap{}
	_, err := store.Load(got)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	snapshotsEqual(t, want, got)
}

func TestLoadNoCheckpoint(t *testing.T) {
	store := &Store{Dir: filepath.Join(t.TempDir(), "nonexistent")}
	_, err := store.Load(&testSnap{})
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: want ErrNoCheckpoint, got %v", err)
	}
	if store.HasSnapshot() {
		t.Fatal("missing dir: HasSnapshot true")
	}
	store = &Store{Dir: t.TempDir()}
	_, err = store.Load(&testSnap{})
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: want ErrNoCheckpoint, got %v", err)
	}
	if store.HasSnapshot() {
		t.Fatal("empty dir: HasSnapshot true")
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
	got := &testSnap{}
	if _, err := store.Load(got); err != nil {
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
		got := &testSnap{}
		info, lerr := store.Load(got)
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
	for pos := headerLen; pos < len(full); pos += 11 {
		mut := append([]byte(nil), full...)
		mut[pos] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		_, lerr := store.Load(&testSnap{})
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
	_, lerr := store.Load(&testSnap{})
	var fe *FormatError
	if lerr == nil || !errors.As(lerr, &fe) || !strings.Contains(fe.Reason, "version") {
		t.Fatalf("want version FormatError, got %v", lerr)
	}
}

// TestTrailingBytesRejected plants a newest generation whose gob payload
// decodes but is followed by one stray byte under a valid CRC. Load must
// reject it and fall back, and nothing of the rejected generation may
// leak into the target: the fallback has no events, the rejected one has.
func TestTrailingBytesRejected(t *testing.T) {
	dir := t.TempDir()
	store := &Store{Dir: dir}
	old := sampleSnapshot()
	old.Level, old.Events = 1, nil
	if err := store.Save(old); err != nil {
		t.Fatalf("Save: %v", err)
	}
	full := savedFile(t, sampleSnapshot())
	padded := frame(FormatVersion, append(full[headerLen:], 0))
	if err := os.WriteFile(filepath.Join(dir, "ckpt-00000002.fbck"), padded, 0o644); err != nil {
		t.Fatal(err)
	}
	got := &testSnap{}
	info, err := store.Load(got)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !info.FellBack || !strings.Contains(info.Detail, "trailing") {
		t.Fatalf("want a trailing-bytes fallback, got %+v", info)
	}
	snapshotsEqual(t, old, got)

	// With no valid generation left, the target keeps its value.
	if err := os.Remove(filepath.Join(dir, "ckpt-00000001.fbck")); err != nil {
		t.Fatal(err)
	}
	kept := &testSnap{Level: 7}
	if _, err := store.Load(kept); err == nil || kept.Level != 7 || len(kept.Events) != 0 {
		t.Fatalf("all-invalid Load: err=%v, target %+v", err, kept)
	}
}

// FuzzLoad feeds arbitrary bytes to Load as the only generation. Load must
// never panic, and it may accept a file only if its frame is intact: the
// magic, the current version, the length and the CRC all match. The same
// bytes are then framed under a valid header, so the gob decoder itself
// sees the fuzzed payload behind a matching CRC. The seeds are a valid
// file, a torn one and one written by the version-1 codec.
func FuzzLoad(f *testing.F) {
	valid := savedFile(f, sampleSnapshot())
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.fbck"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// One directory serves every input: a fuzz worker runs them serially.
	store := &Store{Dir: f.TempDir()}
	path := filepath.Join(store.Dir, "ckpt-00000001.fbck")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Load(&testSnap{}); err == nil {
			intact := len(data) >= headerLen && string(data[:len(magic)]) == magic &&
				binary.LittleEndian.Uint32(data[len(magic):]) == FormatVersion &&
				binary.LittleEndian.Uint64(data[len(magic)+8:]) == uint64(len(data)-headerLen) &&
				binary.LittleEndian.Uint32(data[len(magic)+4:]) == crc32.ChecksumIEEE(data[headerLen:])
			if !intact {
				t.Fatalf("Load accepted a %d-byte file whose frame does not validate", len(data))
			}
		}
		if err := os.WriteFile(path, frame(FormatVersion, data), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _ = store.Load(&testSnap{}) // must not panic
	})
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
	got := &testSnap{}
	info, err := store.Load(got)
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
	got := &testSnap{}
	info, err := store.Load(got)
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
