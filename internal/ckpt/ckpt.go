// Package ckpt provides crash-safe checkpointing for the global placement
// loop: a versioned, checksummed frame around a gob payload and an on-disk
// store with atomic generation rotation, so that a placement run killed
// mid-flight (preemption, OOM, power loss) can resume from its last
// completed level instead of starting over. The store is format-agnostic:
// what a snapshot holds is the caller's type (internal/placer owns its
// snapshot struct), encoded with encoding/gob.
//
// Format. A snapshot file is
//
//	magic "FBPCKPT\x00" | uint32 version | uint32 CRC32-IEEE(payload) |
//	uint64 len(payload) | payload
//
// with the header little-endian and the payload one gob-encoded value.
// gob stores a float64 as its IEEE-754 bit pattern, so a restored
// placement is bit-identical to the one captured (-0, subnormals and NaN
// payloads included) — the property the placer's kill-and-resume
// determinism tests rely on. A file whose version is not FormatVersion is
// refused, never reinterpreted. Everything is stdlib-only.
//
// Atomicity. Save writes to a temporary file in the same directory, fsyncs
// it, and renames it to its final generation name (rename is atomic on
// POSIX). The previous generation is retained, so a crash at any point —
// including mid-write of the new generation — leaves at least one fully
// valid snapshot on disk. Load walks generations newest-first and falls
// back past any file that fails magic/version/length/CRC validation or
// whose payload does not decode; callers can tell a fallback happened
// from LoadInfo and record it as a degradation.
//
// Fault injection. Two faultsim sites cover the failure modes tests care
// about: "ckpt.write" fails a Save outright (the placer records the skip
// and keeps running), and "ckpt.corrupt" tears the write — a truncated
// payload reaches the final file as if the process died between write and
// fsync — so the loader's previous-generation fallback can be exercised
// deterministically.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
)

// FormatVersion is the current snapshot file version: 2 is the gob
// payload (1 was a hand-written field dump). Readers reject snapshots
// with a different version rather than guessing at the payload.
const FormatVersion = 2

// magic identifies a snapshot file. The trailing NUL keeps the magic from
// being a prefix of any plausible text format.
const magic = "FBPCKPT\x00"

// headerLen is the frame header: magic, version, CRC, payload length.
const headerLen = len(magic) + 4 + 4 + 8

const (
	// genPrefix/genSuffix frame generation file names:
	// ckpt-00000001.fbck, ckpt-00000002.fbck, ...
	genPrefix = "ckpt-"
	genSuffix = ".fbck"
)

// writeFault fails a Save before it touches the store, exercising the
// placer's record-and-continue handling of checkpoint write errors.
var writeFault = faultsim.Register("ckpt.write",
	"a checkpoint save fails before touching the store")

// corruptFault tears the current Save: only a prefix of the encoded
// snapshot reaches the final generation file, as if the process died
// between write and fsync. Save still reports success — the corruption is
// only discovered by a later Load, which must fall back to the previous
// generation.
var corruptFault = faultsim.Register("ckpt.corrupt",
	"a checkpoint write is torn: a truncated payload lands in the newest generation")

// ErrNoCheckpoint is returned by Load when the directory holds no
// generation files at all (as opposed to holding only invalid ones).
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// FormatError reports a snapshot file that failed structural validation
// (bad magic, unsupported version, length or CRC mismatch, or a payload
// that does not decode).
type FormatError struct {
	// Path is the offending file, Reason what failed.
	Path, Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("ckpt: %s: %s", e.Path, e.Reason)
}

// Store reads and writes snapshot generations in one directory.
type Store struct {
	// Dir is the checkpoint directory (created on first Save).
	Dir string
	// Obs, when non-nil, counts writes ("ckpt.writes"), restores
	// ("ckpt.restores") and previous-generation fallbacks
	// ("ckpt.fallbacks").
	Obs *obs.Recorder
}

// keepGenerations is how many newest generations Save and GC retain: the
// latest plus one fallback generation.
const keepGenerations = 2

// generation is one on-disk snapshot file.
type generation struct {
	gen  uint64
	path string
}

// generations lists the store's snapshot files sorted newest-first.
// Temporary files and unrelated names are ignored.
func (s *Store) generations() ([]generation, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return nil, err
	}
	var out []generation
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, genPrefix) || !strings.HasSuffix(name, genSuffix) {
			continue
		}
		num := name[len(genPrefix) : len(name)-len(genSuffix)]
		g, perr := strconv.ParseUint(num, 10, 64)
		if perr != nil {
			continue
		}
		out = append(out, generation{gen: g, path: filepath.Join(s.Dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].gen > out[j].gen })
	return out, nil
}

// HasSnapshot reports whether the store holds at least one generation
// file. It does not validate them: Load does.
func (s *Store) HasSnapshot() bool {
	gens, err := s.generations()
	return err == nil && len(gens) > 0
}

// Save writes v as a new generation: gob-encode it into the frame, write
// to a temp file in the store directory, fsync, rename to the final name,
// then prune all but the newest keepGenerations. A Save error leaves every
// existing generation untouched, so the caller can record the failure and
// continue the run.
func (s *Store) Save(v any) error {
	if err := writeFault.Check(); err != nil {
		return err
	}
	// Encode behind a zeroed header, then fill the header in.
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen))
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("ckpt: encode: %w", err)
	}
	data := buf.Bytes()
	payload := data[headerLen:]
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[len(magic):], FormatVersion)
	binary.LittleEndian.PutUint32(data[len(magic)+4:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint64(data[len(magic)+8:], uint64(len(payload)))
	if corruptFault.Check() != nil {
		// Torn write: a prefix of the encoded snapshot lands in the final
		// file. Save still succeeds — the damage is only visible to Load,
		// which must fall back to the previous generation.
		data = data[:len(data)/2]
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	gens, err := s.generations()
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	next := uint64(1)
	if len(gens) > 0 {
		next = gens[0].gen + 1
	}
	final := filepath.Join(s.Dir, fmt.Sprintf("%s%08d%s", genPrefix, next, genSuffix))
	tmp := final + ".tmp"
	if err := writeFileSync(tmp, data); err != nil {
		// Best effort: a half-written temp file is invisible to Load but
		// should not linger.
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	syncDir(s.Dir)
	// Prune: keep the newest keepGenerations (the one just written plus
	// one fallback). Remove failures are tolerable — stale generations only
	// cost disk and are skipped by Load's newest-first walk.
	for i, g := range gens {
		if i+1 >= keepGenerations { // +1 accounts for the generation just written
			_ = os.Remove(g.path)
		}
	}
	s.Obs.Count("ckpt.writes", 1)
	return nil
}

// GC removes all but the newest keepGenerations snapshot generations and
// returns how many files it removed. Save already prunes after every
// successful write; GC covers stores that stopped saving — a job whose
// writes fail (the placer records ckpt.write -> skipped and runs on), or
// one recovered from a previous process — whose stale generations would
// otherwise hold disk forever. A missing directory is not an error: there is nothing to
// collect.
func (s *Store) GC() (int, error) {
	gens, err := s.generations()
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("ckpt: %w", err)
	}
	removed := 0
	for i, g := range gens {
		if i < keepGenerations {
			continue
		}
		if rerr := os.Remove(g.path); rerr == nil {
			removed++
		}
		// A failed remove only costs disk; Load's newest-first walk never
		// reads pruned generations.
	}
	if removed > 0 {
		s.Obs.Count("ckpt.gc", float64(removed))
	}
	return removed, nil
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// bytes are durable before the rename publishes them.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		// The write error is what the caller needs; Close on this path
		// cannot add information.
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Errors are ignored: some filesystems reject directory fsync, and the
// rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	// Directory fsync support is platform-dependent; failure here does not
	// undo the rename.
	_ = d.Sync()
	_ = d.Close()
}

// LoadInfo describes where a loaded snapshot came from.
type LoadInfo struct {
	// Path is the generation file the snapshot was read from, Gen its
	// generation number.
	Path string
	Gen  uint64
	// FellBack is true when a newer generation existed but failed
	// validation; Detail carries that generation's error.
	FellBack bool
	Detail   string
}

// Load decodes the newest valid generation into v, which must be a
// non-nil pointer. Each candidate is decoded into a fresh value and copied
// into v only once it validates, so a rejected generation leaves nothing
// behind. Generations that fail validation (torn writes, corruption, an
// older format) are skipped — never a panic — and the skip is reported
// through LoadInfo so the caller can record a degradation. ErrNoCheckpoint
// is returned when the directory has no generation files; a distinct error
// when generations exist but none validates.
func (s *Store) Load(v any) (LoadInfo, error) {
	dst := reflect.ValueOf(v)
	gens, err := s.generations()
	if err != nil {
		if os.IsNotExist(err) {
			return LoadInfo{}, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.Dir)
		}
		return LoadInfo{}, fmt.Errorf("ckpt: %w", err)
	}
	if len(gens) == 0 {
		return LoadInfo{}, fmt.Errorf("%w in %s", ErrNoCheckpoint, s.Dir)
	}
	info := LoadInfo{}
	var firstErr error
	for i, g := range gens {
		fresh := reflect.New(dst.Type().Elem())
		if rerr := readGeneration(g.path, fresh.Interface()); rerr != nil {
			if i == 0 {
				info.Detail = rerr.Error()
			}
			if firstErr == nil {
				firstErr = rerr
			}
			continue
		}
		dst.Elem().Set(fresh.Elem())
		info.Path, info.Gen = g.path, g.gen
		info.FellBack = i > 0
		s.Obs.Count("ckpt.restores", 1)
		if info.FellBack {
			s.Obs.Count("ckpt.fallbacks", 1)
		}
		return info, nil
	}
	return LoadInfo{}, fmt.Errorf("ckpt: all %d generations in %s invalid: %w", len(gens), s.Dir, firstErr)
}

// readGeneration reads and fully validates one generation file, decoding
// its payload into v.
func readGeneration(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < headerLen {
		return &FormatError{Path: path, Reason: fmt.Sprintf("file too short (%d bytes)", len(data))}
	}
	if string(data[:len(magic)]) != magic {
		return &FormatError{Path: path, Reason: "bad magic"}
	}
	version := binary.LittleEndian.Uint32(data[len(magic):])
	sum := binary.LittleEndian.Uint32(data[len(magic)+4:])
	plen := binary.LittleEndian.Uint64(data[len(magic)+8:])
	if version != FormatVersion {
		return &FormatError{Path: path, Reason: fmt.Sprintf("unsupported format version %d (want %d)", version, FormatVersion)}
	}
	payload := data[headerLen:]
	if plen != uint64(len(payload)) {
		return &FormatError{Path: path, Reason: fmt.Sprintf("payload length %d, file carries %d", plen, len(payload))}
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return &FormatError{Path: path, Reason: fmt.Sprintf("CRC mismatch: stored %08x, computed %08x", sum, got)}
	}
	// gob grows messages and slices in bounded chunks, so a CRC-colliding
	// payload that claims a huge length fails with an error instead of
	// allocating it up front.
	r := bytes.NewReader(payload)
	if err := gob.NewDecoder(r).Decode(v); err != nil {
		return &FormatError{Path: path, Reason: "payload: " + err.Error()}
	}
	if r.Len() != 0 {
		return &FormatError{Path: path, Reason: fmt.Sprintf("payload: %d trailing bytes", r.Len())}
	}
	return nil
}
