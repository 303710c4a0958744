package serve

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fbplace/internal/chipio"
	"fbplace/internal/ckpt"
	"fbplace/internal/degrade"
	"fbplace/internal/gen"
	"fbplace/internal/netlist"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
	"fbplace/internal/region"
)

// State is a job's lifecycle state. Preempted jobs go back to StateQueued
// (with their checkpoint retained), so the states a client observes are a
// simple submit -> queued -> running -> terminal progression, possibly
// cycling queued/running while the job is preempted and resumed.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is one job submission: exactly one instance source (an inline
// synthetic chip spec, a server-side FBPLACE v1 file reference, or the
// instance text itself) plus the placer knobs and scheduling attributes.
type Spec struct {
	// Chip generates a synthetic instance (deterministic per Seed).
	Chip *gen.ChipSpec `json:"chip,omitempty"`
	// File references an FBPLACE v1 instance file on the server, as a
	// relative path under the configured instance root (Options.FileRoot,
	// fbplaced -root). File references are rejected when no root is
	// configured.
	File string `json:"file,omitempty"`
	// Netlist is an inline FBPLACE v1 instance text.
	Netlist string `json:"netlist,omitempty"`
	// Knobs tune the placer for this job.
	Knobs Knobs `json:"knobs"`
	// Priority orders the queue; higher runs first and may preempt a
	// running lower-priority job. Default 0.
	Priority int `json:"priority"`
	// TimeoutMS bounds the job's wall clock from submission (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache and single-flight coalescing:
	// the job always runs its own placement and its result is not stored.
	NoCache bool `json:"no_cache,omitempty"`
}

// Knobs is the JSON-friendly subset of placer.Config a job may set.
// Fields the scheduler owns (Workers, Obs, Checkpoint, Preempt) are
// deliberately absent. Zero values select the placer's documented
// defaults, and hash identically to them in the cache key.
type Knobs struct {
	// Mode is "fbp" (default) or "recursive".
	Mode string `json:"mode,omitempty"`
	// TargetDensity, ClusterRatio, MaxLevels, DetailPasses,
	// SkipLegalization and NoLocalQP mirror placer.Config.
	TargetDensity    float64 `json:"target_density,omitempty"`
	ClusterRatio     float64 `json:"cluster_ratio,omitempty"`
	MaxLevels        int     `json:"max_levels,omitempty"`
	DetailPasses     int     `json:"detail_passes,omitempty"`
	SkipLegalization bool    `json:"skip_legalization,omitempty"`
	NoLocalQP        bool    `json:"no_local_qp,omitempty"`
}

// SpecError reports a structurally invalid job submission.
type SpecError struct {
	// Field names the offending Spec field, Reason the constraint.
	Field, Reason string
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("serve: invalid Spec.%s: %s", e.Field, e.Reason)
}

// config compiles the knobs into a canonical placer.Config over the
// instance's movebounds. The scheduler later injects its own plumbing
// (Workers, Obs, Checkpoint, Preempt) per attempt — none of which is part
// of the trajectory fingerprint.
func (k Knobs) config(mbs []region.Movebound) (placer.Config, error) {
	cfg := placer.Config{
		TargetDensity:    k.TargetDensity,
		ClusterRatio:     k.ClusterRatio,
		MaxLevels:        k.MaxLevels,
		DetailPasses:     k.DetailPasses,
		SkipLegalization: k.SkipLegalization,
		NoLocalQP:        k.NoLocalQP,
		Movebounds:       mbs,
	}
	switch k.Mode {
	case "", "fbp":
		cfg.Mode = placer.ModeFBP
	case "recursive":
		cfg.Mode = placer.ModeRecursive
	default:
		return cfg, &SpecError{Field: "Knobs.Mode", Reason: fmt.Sprintf("unknown mode %q", k.Mode)}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("serve: %w", err)
	}
	return cfg, nil
}

// cacheKey identifies a placement trajectory: the PR 5 netlist and config
// fingerprints. Two submissions with equal keys produce bit-identical
// placements, which is what makes the result cache and single-flight
// coalescing sound.
type cacheKey struct {
	net, cfg uint64
}

func (k cacheKey) String() string { return fmt.Sprintf("%016x-%016x", k.net, k.cfg) }

// Result is a finished placement: final positions (bit-exact) plus the
// report fields clients care about. Results are immutable once built and
// may be shared between coalesced jobs and the LRU cache.
type Result struct {
	X, Y         []float64
	HPWL         float64
	Levels       int
	Violations   int
	Overlaps     int
	GlobalTime   time.Duration
	LegalTime    time.Duration
	Degradations []degrade.Event
	// Certified is true when the placement passed independent
	// certification (Options.Certify) before being cached or served; a
	// certify-stage entry in Degradations means the placer's certify
	// re-run produced it.
	Certified bool
}

// Job is one submission's full lifecycle. All mutable fields are guarded
// by mu; the instance (n, mbs, cfg, key) is immutable after load.
type Job struct {
	// ID is the job identifier ("j00000001"), Seq its submission number.
	ID  string
	Seq uint64

	spec Spec
	n    *netlist.Netlist
	mbs  []region.Movebound
	cfg  placer.Config
	key  cacheKey
	// x0, y0 are the load-time positions, restored before any fresh
	// (non-resume) attempt so a retried run starts from the same state
	// the first attempt saw — the bit-identity contract depends on it.
	x0, y0 []float64
	// dir is the job's state directory ("" disables persistence).
	dir string
	// fileRoot is the instance root Spec.File resolved under, retained so
	// verification reloads see the same file.
	fileRoot string

	// est is the admission-time resource estimate (immutable after load).
	est Estimate

	ctx     context.Context
	cancel  context.CancelFunc
	preempt atomic.Bool
	// lastBeat is the heartbeat timestamp (UnixNano) the watchdog reads;
	// written by the obs.Progress hook on every span boundary.
	lastBeat  atomic.Int64
	bc        *obs.Broadcast // progress log; closed by Scheduler.finish
	done      chan struct{}
	persistMu sync.Mutex // serializes persist: job.json ends with the latest state

	mu            sync.Mutex
	state         State              // guarded by mu
	errText       string             // guarded by mu
	errCode       string             // guarded by mu — machine-readable failure code
	userCanceled  bool               // guarded by mu
	resumable     bool               // guarded by mu
	preemptions   int                // guarded by mu
	levelsDone    int                // guarded by mu
	cached        bool               // guarded by mu
	coalesced     bool               // guarded by mu
	submitted     time.Time          // guarded by mu
	result        *Result            // guarded by mu
	attemptCtx    context.Context    // guarded by mu — current attempt
	attemptCancel context.CancelFunc // guarded by mu
	strikes       int                // guarded by mu — consecutive no-progress attempts
	wdRequeues    int                // guarded by mu — watchdog requeues so far
}

// Status is the JSON view of a job.
type Status struct {
	ID          string `json:"id"`
	State       State  `json:"state"`
	Priority    int    `json:"priority"`
	Preemptions int    `json:"preemptions"`
	// LevelsDone is the last refinement level the job completed,
	// LevelsPlanned the level count it plans from admission on
	// (placer.PlannedLevels). A job that ran its own placement to done
	// has both equal; cache hits and coalesced jobs report LevelsDone 0.
	LevelsDone    int    `json:"levels_done"`
	LevelsPlanned int    `json:"levels_planned,omitempty"`
	Cached        bool   `json:"cached,omitempty"`
	Coalesced     bool   `json:"coalesced,omitempty"`
	Error         string `json:"error,omitempty"`
	// ErrorCode is the machine-readable failure code when one applies
	// (currently "result_uncertified": the placement failed independent
	// certification after the placer's one re-run, or failed the
	// scheduler's own certification gate).
	ErrorCode string `json:"error_code,omitempty"`
	// Certified is true when the job's result passed independent
	// certification (Options.Certify) — including results served from the
	// cache, which only ever holds certified placements.
	Certified     bool    `json:"certified,omitempty"`
	HPWL          float64 `json:"hpwl,omitempty"`
	SubmittedUnix int64   `json:"submitted_unix,omitempty"`
	// Requeues counts watchdog requeues, Strikes the consecutive
	// no-progress attempts so far; EstPeakBytes is the admission-time
	// memory estimate.
	Requeues     int   `json:"watchdog_requeues,omitempty"`
	Strikes      int   `json:"watchdog_strikes,omitempty"`
	EstPeakBytes int64 `json:"est_peak_bytes,omitempty"`
}

// Status returns a consistent snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:            j.ID,
		State:         j.state,
		Priority:      j.spec.Priority,
		Preemptions:   j.preemptions,
		LevelsDone:    j.levelsDone,
		LevelsPlanned: j.est.Levels,
		Cached:        j.cached,
		Coalesced:     j.coalesced,
		Error:         j.errText,
		ErrorCode:     j.errCode,
		SubmittedUnix: j.submitted.Unix(),
		Requeues:      j.wdRequeues,
		Strikes:       j.strikes,
		EstPeakBytes:  j.est.PeakBytes,
	}
	if j.result != nil {
		st.HPWL = j.result.HPWL
		st.Certified = j.result.Certified
	}
	return st
}

// State returns the job's current state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Priority returns the job's submission priority.
func (j *Job) Priority() int { return j.spec.Priority }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the finished placement, or an error while the job is not
// done (including recovered historical jobs whose result predates this
// process).
func (j *Job) Result() (*Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.state == StateDone && j.result != nil:
		return j.result, nil
	case j.state == StateDone:
		return nil, fmt.Errorf("serve: job %s finished before this process started; its result was not retained", j.ID)
	case j.state.Terminal():
		return nil, fmt.Errorf("serve: job %s %s: %s", j.ID, j.state, j.errText)
	default:
		return nil, fmt.Errorf("serve: job %s is %s", j.ID, j.state)
	}
}

// follow feeds the job's progress log (obs spans/counters plus "state"
// transition events) to emit from the first event on, retained history
// and live tail through one cursor, until the log is closed and drained,
// ctx is done or emit fails. It returns how many events the log evicted
// before this reader got to them.
func (j *Job) follow(ctx context.Context, emit func(obs.Event) bool) (skipped int64) {
	var cur int64
	for {
		evs, next, sk, wake := j.bc.Read(cur)
		cur, skipped = next, skipped+sk
		for _, e := range evs {
			if !emit(e) {
				return skipped
			}
		}
		if wake == nil {
			return skipped // the job ended
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return skipped
		}
	}
}

// setState moves a live job to queued or running and emits a "state"
// event into the progress stream. A terminal job stays as it is: only
// Scheduler.finish ends a job. The caller must not hold j.mu.
func (j *Job) setState(st State) {
	j.mu.Lock()
	prev := j.state
	if !prev.Terminal() {
		j.state = st
	}
	j.mu.Unlock()
	if !prev.Terminal() && prev != st {
		j.bc.Emit(obs.Event{Type: "state", Name: string(st)})
	}
}

// terminate is the job's half of Scheduler.finish: the terminal check,
// the state change and the outcome in one critical section. It reports
// whether this call ended the job; a job already terminal is unchanged.
func (j *Job) terminate(st State, res *Result, msg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state, j.result, j.errText = st, res, msg
	return true
}

// noteLevel records that partitioning level lv (1-based) completed. The
// count is set, not incremented, so a run that covers levels again (the
// placer's certify re-run, a fresh retry without a snapshot) cannot push
// it past the plan. Completing a level is real forward progress, so it
// clears the watchdog's strike counter: only *consecutive* no-progress
// attempts accumulate toward a terminal JobStuck — a slow job that keeps
// advancing never does.
func (j *Job) noteLevel(lv int) {
	j.mu.Lock()
	j.levelsDone = lv
	j.strikes = 0
	j.mu.Unlock()
}

// beat refreshes the watchdog heartbeat (called from the obs.Progress
// hook at every span boundary of the running attempt).
func (j *Job) beat() { j.lastBeat.Store(time.Now().UnixNano()) }

// beginAttempt installs a fresh per-attempt context under the job's own
// (so user cancel and deadline still propagate) and primes the
// heartbeat. The returned cancel must be deferred by the worker; the
// watchdog calls it through the job to strike a stalled attempt.
func (j *Job) beginAttempt() (context.Context, context.CancelFunc) {
	actx, acancel := context.WithCancel(j.ctx)
	j.beat()
	j.mu.Lock()
	j.attemptCtx = actx
	j.attemptCancel = acancel
	j.mu.Unlock()
	return actx, acancel
}

// ckptDir is the per-job checkpoint directory preemption snapshots into.
func (j *Job) ckptDir() string { return filepath.Join(j.dir, "ckpt") }

// ckptStore is the job's checkpoint store.
func (j *Job) ckptStore() *ckpt.Store { return &ckpt.Store{Dir: j.ckptDir()} }

// jobSink forwards a placement attempt's obs events into the job's
// progress log and mines them for progress: a completed "level" span
// over a 2^lv x 2^lv window grid is level lv.
type jobSink struct{ j *Job }

func (s jobSink) Emit(e obs.Event) {
	if e.Type == obs.EventSpan && e.Name == "level" {
		s.j.noteLevel(bits.Len(uint(e.Attrs["grid"])) - 1)
	}
	s.j.bc.Emit(e)
}

// resolveFile confines a Spec.File reference to the instance root: the
// reference must be a local (relative, non-escaping) path and an empty
// root disables file references entirely, so an HTTP client can never
// make the daemon open an arbitrary server path.
func resolveFile(root, name string) (string, error) {
	if root == "" {
		return "", &SpecError{Field: "File", Reason: "file references are disabled (no instance root configured)"}
	}
	if !filepath.IsLocal(filepath.Clean(filepath.FromSlash(name))) {
		return "", &SpecError{Field: "File", Reason: fmt.Sprintf("%q escapes the instance root", name)}
	}
	return filepath.Join(root, filepath.FromSlash(name)), nil
}

// loadInstance resolves the spec's instance source into a netlist and its
// movebounds. fileRoot confines Spec.File references (see resolveFile).
func loadInstance(spec *Spec, fileRoot string) (*netlist.Netlist, []region.Movebound, error) {
	sources := 0
	if spec.Chip != nil {
		sources++
	}
	if spec.File != "" {
		sources++
	}
	if spec.Netlist != "" {
		sources++
	}
	if sources != 1 {
		return nil, nil, &SpecError{Field: "Chip/File/Netlist", Reason: fmt.Sprintf("exactly one instance source required, got %d", sources)}
	}
	switch {
	case spec.Chip != nil:
		inst, err := gen.Chip(*spec.Chip)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: %w", err)
		}
		return inst.N, inst.Movebounds, nil
	case spec.File != "":
		path, err := resolveFile(fileRoot, spec.File)
		if err != nil {
			return nil, nil, err
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: %w", err)
		}
		defer f.Close()
		n, mbs, err := chipio.Read(f)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: %s: %w", spec.File, err)
		}
		return n, mbs, nil
	default:
		n, mbs, err := chipio.Read(strings.NewReader(spec.Netlist))
		if err != nil {
			return nil, nil, fmt.Errorf("serve: inline netlist: %w", err)
		}
		return n, mbs, nil
	}
}

// newJob loads the instance, compiles the config, computes the cache key
// and prices the job for a process at GC percent gogc. The context
// (deadline, cancel) is installed by the scheduler.
func newJob(id string, seq uint64, spec Spec, fileRoot string, gogc int) (*Job, error) {
	n, mbs, err := loadInstance(&spec, fileRoot)
	if err != nil {
		return nil, err
	}
	cfg, err := spec.Knobs.config(mbs)
	if err != nil {
		return nil, err
	}
	j := &Job{
		ID:       id,
		Seq:      seq,
		spec:     spec,
		fileRoot: fileRoot,
		n:        n,
		mbs:      mbs,
		cfg:      cfg,
		x0:       append([]float64(nil), n.X...),
		y0:       append([]float64(nil), n.Y...),
		bc:       obs.NewBroadcast(obs.DefaultRetain),
		done:     make(chan struct{}),
		key: cacheKey{
			net: ckpt.Fingerprint(n),
			cfg: placer.ConfigFingerprint(&cfg),
		},
		est:       estimateJob(n, cfg, gogc),
		state:     StateQueued,
		submitted: time.Now(),
	}
	return j, nil
}

// restoreStart rewinds the job's netlist to its load-time positions, so a
// fresh (non-resume) attempt is bit-identical to a first attempt.
func (j *Job) restoreStart() {
	copy(j.n.X, j.x0)
	copy(j.n.Y, j.y0)
}
