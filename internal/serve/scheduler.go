// Package serve turns the placer into a placement service: a bounded
// worker pool multiplexes many concurrent placement jobs submitted over a
// job API (Scheduler for library callers, Server for HTTP/JSON — see
// cmd/fbplaced).
//
// Three properties carry the design, all inherited from earlier layers:
//
//   - Preemption is safe because checkpoints are bit-identical. When a
//     higher-priority job arrives and no worker is free, the scheduler
//     asks the lowest-priority running job to stop at its next level
//     boundary (placer.Config.Preempt). The victim snapshots via
//     internal/ckpt, requeues, and later resumes — on any worker, since
//     the worker count is excluded from the resume fingerprint — and its
//     final positions are bit-for-bit what an uninterrupted run produces.
//   - Caching is safe because placement is deterministic. Results are
//     cached in an LRU keyed by the netlist and config fingerprints of
//     internal/ckpt; identical submissions return the cached placement
//     (and concurrent identical submissions coalesce into one run).
//   - Degradation is graceful because failures are structured. A failed
//     preemption snapshot keeps the victim running (recorded in the
//     degradation log), a failed checkpoint never aborts a run, and
//     worker-pool shutdown drains through the same snapshot machinery so
//     a restarted scheduler resumes the interrupted jobs.
package serve

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/chipio"
	"fbplace/internal/degrade"
	"fbplace/internal/faultsim"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
)

// acceptFault rejects a job at admission, exercising structured 503
// handling under concurrent load (the fault-suite satellite).
var acceptFault = faultsim.Register("serve.accept",
	"a job submission is rejected at admission")

// ErrShuttingDown is returned by Submit once Shutdown has begun.
var ErrShuttingDown = errors.New("serve: scheduler is shutting down")

// ErrUnknownJob is returned for job IDs the scheduler does not know.
var ErrUnknownJob = errors.New("serve: unknown job")

// Options configures a Scheduler. The zero value is usable: two workers,
// sequential per-job realization, a 64-entry cache, and an ephemeral
// state directory.
type Options struct {
	// Workers is the worker-pool size (concurrent placements). Default 2.
	Workers int
	// JobWorkers bounds each placement's internal realization
	// parallelism (placer.Config.Workers). Default 1: the pool, not the
	// job, owns the machine's parallelism. Results are bit-identical
	// across any value by the placer's determinism contract.
	JobWorkers int
	// CacheEntries sizes the LRU result cache. 0 selects the default of
	// 64; negative disables caching entirely.
	CacheEntries int
	// StateDir is where per-job state (job.json, checkpoints) lives, so
	// a restarted scheduler resumes interrupted jobs. Empty selects a
	// fresh temporary directory (no cross-restart recovery).
	StateDir string
	// FileRoot is the directory Spec.File references resolve under.
	// Empty (the default) disables file references: a submission naming a
	// file is rejected rather than allowed to open arbitrary server
	// paths.
	FileRoot string

	// Certify independently re-certifies every completed placement before
	// it can reach the result cache or a client (internal/certify):
	// positions, overlap and movebound-violation recounts and the HPWL are
	// re-derived by the scheduler's own checker, on top of the placer's
	// per-run certificates (placer.CertifyFinal is forced onto each
	// attempt, including checkpoint resumes, and the placer re-runs a
	// placement once when its own certificate fails). A result that fails
	// after that re-run, or fails the scheduler's gate, is quarantined
	// under the job's state directory and fails the job terminally with
	// the result_uncertified error code; it is never cached.
	Certify bool

	// QueueLimit bounds the queue depth; submissions past it are refused
	// with ErrQueueFull (HTTP 429). 0 selects the default of 64, negative
	// disables the bound. Cache hits and coalesced submissions never
	// consume a queue slot and are exempt.
	QueueLimit int
	// MemBudget is the process memory budget in bytes: jobs whose
	// predicted peak exceeds it are refused outright, and job starts are
	// gated so the running jobs' predicted peaks sum below it. 0 selects
	// the default (three quarters of available RAM, 4 GiB fallback),
	// negative disables memory governance.
	MemBudget int64
	// NoProgress is the watchdog's no-progress deadline: a running
	// attempt whose heartbeat is older earns a strike and is requeued
	// through the checkpoint path. 0 selects the default of 2 minutes,
	// negative disables the watchdog.
	NoProgress time.Duration
	// StuckStrikes is how many consecutive no-progress attempts fail a
	// job terminally with JobStuckError. 0 selects the default of 3.
	StuckStrikes int
	// GCKeepTerminal caps how many terminal jobs are retained (in memory
	// and on disk); older ones are garbage-collected and their IDs answer
	// 404 afterwards. 0 selects the default of 256, negative retains
	// everything.
	GCKeepTerminal int

	// governTick is the governor cadence (memory sampling, watchdog scan,
	// GC). 0 selects the default of 1s, negative disables the governor
	// entirely (watchdog and GC with it).
	// Only tests change it.
	governTick time.Duration
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 64
	}
	if o.QueueLimit == 0 {
		o.QueueLimit = 64
	}
	if o.MemBudget == 0 {
		o.MemBudget = defaultMemBudget()
	}
	if o.NoProgress == 0 {
		o.NoProgress = 2 * time.Minute
	}
	if o.StuckStrikes <= 0 {
		o.StuckStrikes = 3
	}
	if o.governTick == 0 {
		o.governTick = time.Second
	}
	if o.GCKeepTerminal == 0 {
		o.GCKeepTerminal = 256
	}
}

// Scheduler multiplexes placement jobs over a bounded worker pool with
// priorities, preemption, an idempotent result cache and crash-safe
// per-job state. Create with NewScheduler; stop with Shutdown.
type Scheduler struct {
	opt      Options
	rec      *obs.Recorder
	stateDir string
	// gogc is the GC percent read once at start; admission prices jobs
	// with it (estimateJob).
	gogc int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    jobQueue             // guarded by mu
	jobs     map[string]*Job      // guarded by mu
	order    []*Job               // guarded by mu
	running  map[string]*Job      // guarded by mu
	flights  map[cacheKey]*flight // guarded by mu
	seq      uint64               // guarded by mu
	idle     int                  // guarded by mu
	shutdown bool                 // guarded by mu

	// Governance state (see govern.go for the policies).
	committed  int64       // guarded by mu — sum of running jobs' predicted peaks
	memBlocked bool        // guarded by mu — a queued job could not start for memory
	measured   int64       // guarded by mu — last sampled process heap
	doneTimes  []time.Time // guarded by mu — completion ring for the drain rate

	wg    sync.WaitGroup
	gwg   sync.WaitGroup // governor goroutine; stopped after the workers drain
	quit  chan struct{}  // closed to stop the governor
	stop  sync.Once      // closes quit exactly once
	dl    *degrade.Log   // watchdog degradation entries
	cache *resultCache
}

// flight tracks one in-progress placement and the identical submissions
// coalesced onto it (single-flight): followers wait for the leader's
// result instead of burning workers on a placement that is already
// running.
type flight struct {
	leader    *Job
	followers []*Job
}

// NewScheduler creates the state directory, recovers any persisted
// non-terminal jobs from a previous process, and starts the worker pool.
func NewScheduler(opt Options) (*Scheduler, error) {
	opt.fill()
	rec := obs.New(nil)
	dir := opt.StateDir
	if dir == "" {
		d, err := os.MkdirTemp("", "fbplaced-")
		if err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
		dir = d
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: state dir: %w", err)
	}
	s := &Scheduler{
		opt:      opt,
		rec:      rec,
		stateDir: dir,
		jobs:     map[string]*Job{},
		running:  map[string]*Job{},
		flights:  map[cacheKey]*flight{},
		quit:     make(chan struct{}),
		dl:       degrade.New(rec),
		cache:    newResultCache(opt.CacheEntries),
		gogc:     gcPercent(),
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	if opt.governTick > 0 {
		s.gwg.Add(1)
		go s.governLoop()
	}
	return s, nil
}

// StateDir returns the scheduler's state directory.
func (s *Scheduler) StateDir() string { return s.stateDir }

// Obs returns the recorder carrying the serve.* counters and gauges.
func (s *Scheduler) Obs() *obs.Recorder { return s.rec }

// Submit admits one job: it loads the instance, prices it against the
// admission limits (memory budget, queue bound — see govern.go),
// consults the result cache and in-flight placements, and either
// finishes the job immediately (cache hit), attaches it to an identical
// running placement (single-flight), or enqueues it — possibly asking a
// lower-priority running job to preempt itself at its next level
// boundary. Rejections are *AdmissionError with a Retry-After hint
// where retrying can help.
func (s *Scheduler) Submit(spec Spec) (*Job, error) {
	if err := acceptFault.Check(); err != nil {
		s.rec.Count("serve.rejected", 1)
		return nil, fmt.Errorf("serve: admission: %w", err)
	}
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()

	if spec.Chip != nil {
		// Price a synthetic chip from its spec before generating it:
		// generation allocates per cell at once, so a spec the budget
		// refuses anyway must be refused before it can exhaust memory.
		if err := s.admitPeak(chipFloor(spec.Chip, s.gogc)); err != nil {
			return nil, err
		}
	}
	j, err := newJob(fmt.Sprintf("j%08d", seq), seq, spec, s.opt.FileRoot, s.gogc)
	if err != nil {
		s.rec.Count("serve.badspec", 1)
		return nil, err
	}
	if err := s.admitPeak(j.est); err != nil {
		return nil, err
	}
	j.dir = filepath.Join(s.stateDir, "jobs", j.ID)
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: job dir: %w", err)
	}
	s.installContext(j)

	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		// The job never became visible: release its deadline timer and
		// drop the just-created state dir so a drain leaves nothing behind.
		j.cancel()
		_ = os.RemoveAll(j.dir)
		return nil, ErrShuttingDown
	}
	// Decide whether this submission needs a queue slot before it becomes
	// visible: cache hits and coalesced followers ride work that is
	// already paid for and are exempt from the queue bound.
	var hit *Result
	if !spec.NoCache {
		hit, _ = s.cache.get(j.key)
	}
	if _, flying := s.flights[j.key]; hit == nil && (spec.NoCache || !flying) {
		if reject := s.admitQueuedLocked(); reject != nil {
			s.mu.Unlock()
			j.cancel()
			_ = os.RemoveAll(j.dir)
			return nil, reject
		}
	}
	s.rec.Count("serve.submitted", 1)
	switch {
	case spec.NoCache:
		s.rec.Count("serve.cache.bypassed", 1)
	case hit != nil:
		s.rec.Count("serve.cache.hits", 1)
	default:
		s.rec.Count("serve.cache.misses", 1)
	}
	if hit != nil {
		s.registerLocked(j)
	} else if s.enqueueLocked(j) {
		s.maybePreemptLocked(j.Priority())
	}
	s.mu.Unlock()

	if hit != nil {
		j.mu.Lock()
		j.cached = true
		j.mu.Unlock()
		s.finish(j, StateDone, hit, "")
	} else {
		s.persist(j)
	}
	return j, nil
}

// admitPeak refuses a job whose predicted peak exceeds the whole memory
// budget: it could never be started, so retrying cannot help.
func (s *Scheduler) admitPeak(est Estimate) error {
	if s.opt.MemBudget <= 0 || est.PeakBytes <= s.opt.MemBudget {
		return nil
	}
	s.rec.Count("serve.rejected", 1)
	s.rec.Count("serve.rejected.overbudget", 1)
	return &AdmissionError{
		Status: 503,
		Detail: fmt.Sprintf("predicted peak %d bytes > budget %d bytes (%d cells, %d pins, %d levels)",
			est.PeakBytes, s.opt.MemBudget, est.Cells, est.Pins, est.Levels),
		err: ErrOverBudget,
	}
}

// registerLocked makes j visible (Job, Jobs, GET /jobs) and emits its
// queued event; a tombstone's closed stream drops the event.
func (s *Scheduler) registerLocked(j *Job) {
	s.jobs[j.ID] = j
	s.order = append(s.order, j)
	j.bc.Emit(obs.Event{Type: "state", Name: string(StateQueued)})
}

// enqueueLocked is the one way into the queue (Submit, recover): it
// registers j, then coalesces it onto its cache key's flight or makes it
// lead a new one and pushes it on the heap; NoCache jobs queue alone. It
// reports whether j entered the heap (only then may it preempt).
func (s *Scheduler) enqueueLocked(j *Job) bool {
	s.registerLocked(j)
	defer s.updateGaugesLocked()
	if fl, ok := s.flights[j.key]; ok && !j.spec.NoCache {
		j.mu.Lock()
		j.coalesced = true
		j.mu.Unlock()
		fl.followers = append(fl.followers, j)
		s.rec.Count("serve.coalesced", 1)
		return false
	}
	if !j.spec.NoCache {
		s.flights[j.key] = &flight{leader: j}
	}
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return true
}

// admitQueuedLocked applies the queue-slot admission limit: a full queue
// refuses a submission with the drain-rate Retry-After.
func (s *Scheduler) admitQueuedLocked() *AdmissionError {
	if s.opt.QueueLimit > 0 && s.queue.Len() >= s.opt.QueueLimit {
		s.rec.Count("serve.rejected", 1)
		s.rec.Count("serve.rejected.queue", 1)
		return &AdmissionError{
			Status:     429,
			Detail:     fmt.Sprintf("queue at its bound of %d", s.opt.QueueLimit),
			RetryAfter: s.retryAfterLocked(),
			err:        ErrQueueFull,
		}
	}
	return nil
}

// installContext wires the job's cancellation (and deadline, measured
// from submission) context.
func (s *Scheduler) installContext(j *Job) {
	ctx := context.Background()
	if j.spec.TimeoutMS > 0 {
		j.ctx, j.cancel = context.WithTimeout(ctx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
	} else {
		j.ctx, j.cancel = context.WithCancel(ctx)
	}
}

// maybePreemptLocked asks the weakest running job to yield when a job of
// higher priority has to wait for a worker. The victim is the running job
// with the lowest priority strictly below pri (newest submission on
// ties), and the request takes effect at the victim's next level
// boundary, once its snapshot is durably on disk.
func (s *Scheduler) maybePreemptLocked(pri int) {
	if s.idle > 0 {
		return
	}
	var victim *Job
	for _, r := range s.running {
		if r.Priority() >= pri || r.preempt.Load() {
			continue
		}
		if victim == nil || r.Priority() < victim.Priority() ||
			(r.Priority() == victim.Priority() && r.Seq > victim.Seq) {
			victim = r
		}
	}
	if victim != nil {
		victim.preempt.Store(true)
		s.rec.Count("serve.preempt.requests", 1)
	}
}

// Job returns a submitted job by ID.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all known jobs in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Job(nil), s.order...)
}

// Cancel stops a job: a queued job finishes as canceled immediately, a
// running job's context is canceled and the worker finishes it. Canceling
// a terminal job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.State().Terminal() {
		s.mu.Unlock()
		return nil
	}
	j.mu.Lock()
	j.userCanceled = true
	j.mu.Unlock()
	if _, isRunning := s.running[j.ID]; isRunning {
		s.mu.Unlock()
		j.cancel()
		return nil
	}
	// Queued (in the heap, or coalesced onto a flight): a follower leaves
	// its flight and a heap entry is pruned so the queue-depth gauge stays
	// honest; finish then dissolves a flight the job leads.
	if fl, ok := s.flights[j.key]; ok && fl.leader != j {
		fl.followers = slices.DeleteFunc(fl.followers, func(f *Job) bool { return f == j })
	}
	if i := slices.Index(s.queue, j); i >= 0 {
		heap.Remove(&s.queue, i)
	}
	s.mu.Unlock()
	s.finish(j, StateCanceled, nil, "canceled while queued")
	return nil
}

// worker is one pool goroutine: it claims the highest-priority queued job
// and runs it to its next terminal (or preempted) transition.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// next blocks until a runnable job or shutdown. Jobs canceled while
// queued are skipped here.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.shutdown {
			return nil
		}
		if j := s.claimLocked(); j != nil {
			return j
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
}

// claimLocked pops the best-priority queued job whose predicted memory
// footprint fits next to the running set, commits its footprint, and
// moves it to running. Jobs that do not fit stay queued (in order) and
// raise the memory-blocked flag (reported on /stats and as the
// serve.queue.blocked gauge); they start once a running job releases its
// footprint. The queued check and the move to running share s.mu with
// finish, so a claimed job is never already terminal.
func (s *Scheduler) claimLocked() *Job {
	var skipped []*Job
	var picked *Job
	for s.queue.Len() > 0 {
		j := heap.Pop(&s.queue).(*Job)
		if j.State() != StateQueued {
			continue
		}
		if !s.fitsLocked(j) {
			skipped = append(skipped, j)
			continue
		}
		picked = j
		break
	}
	for _, sj := range skipped {
		heap.Push(&s.queue, sj)
	}
	s.memBlocked = picked == nil && len(skipped) > 0
	if picked != nil {
		picked.setState(StateRunning)
		s.running[picked.ID] = picked
		s.committed += picked.est.PeakBytes
	}
	s.updateGaugesLocked()
	return picked
}

// runJob executes one placement attempt: resume from the job's checkpoint
// when one exists (preempted or recovered jobs), fresh otherwise, with the
// scheduler's plumbing (obs stream, per-job checkpoint dir, preemption
// poll) injected into the config.
func (s *Scheduler) runJob(j *Job) {
	// Each attempt runs under its own context so the watchdog can cancel
	// a stalled attempt without killing the job: the job's context (user
	// cancel, deadline) stays authoritative through the parent.
	actx, acancel := j.beginAttempt()
	defer acancel()
	s.persist(j)
	rec := obs.New(jobSink{j})
	rec.SetProgress(func(string) { j.beat() })
	cfg := j.cfg
	cfg.Obs = rec
	cfg.Workers = s.opt.JobWorkers
	if s.opt.Certify {
		// Certification observes the trajectory without steering it, so the
		// mode is absent from the config fingerprint and the cache key is
		// unchanged.
		cfg.Certify = placer.CertifyFinal
	}
	cfg.Checkpoint = placer.Checkpoint{Dir: j.ckptDir()}
	stall := func() {
		if stallFault.Check() != nil {
			// Injected stall: stop making progress until the watchdog (or a
			// cancel/shutdown) ends the attempt.
			s.rec.Count("serve.stalls", 1)
			<-actx.Done()
		}
	}
	// The stall site fires here (a wedge before any level completes — the
	// path that accumulates strikes toward JobStuck, since completed levels
	// reset them) and at every level boundary via the preempt poll (a wedge
	// mid-run, where the completed level's snapshot makes the requeue
	// resumable).
	stall()
	cfg.Preempt = func() bool {
		stall()
		return j.preempt.Load()
	}
	s.rec.Count("serve.placements", 1)

	j.mu.Lock()
	resume := j.resumable
	j.mu.Unlock()
	var rep *placer.Report
	var err error
	if resume {
		rep, err = placer.Resume(actx, j.n, j.ckptDir(), cfg)
		var re *placer.ResumeError
		if errors.As(err, &re) {
			// No usable snapshot (all generations torn, or the directory
			// vanished): fall back to a fresh run. Determinism makes the
			// fresh result bit-identical to the resumed one.
			s.rec.Count("serve.resume.fallbacks", 1)
			j.restoreStart()
			rep, err = placer.PlaceCtx(actx, j.n, cfg)
		} else if err == nil || errors.Is(err, placer.ErrPreempted) {
			s.rec.Count("serve.resumes", 1)
		}
	} else {
		j.restoreStart()
		rep, err = placer.PlaceCtx(actx, j.n, cfg)
	}
	rec.Flush()

	// Certification gate: the scheduler re-certifies the attempt's result
	// itself, before anything can reach the cache or a client — the
	// placer's certificates guard its internals (and its one re-run
	// repairs what they catch), this one guards the boundary (and the
	// resume path re-enters here like any attempt).
	if err == nil && s.opt.Certify {
		err = s.certifyResult(actx, j, rep)
	}

	var ce *certify.Error
	var pe *placer.PreemptedError
	switch {
	case err == nil:
		s.countCertifyRepairs(rep)
		s.rec.Count("serve.degradations", float64(len(rep.Degradations)))
		s.finish(j, StateDone, buildResult(j, rep), "")
	case errors.As(err, &ce):
		// A wrong answer escaped the placer's re-run or failed the gate:
		// terminal, with the offending positions quarantined and nothing
		// cached. It is a finished result, so it outranks a context that
		// ended meanwhile.
		s.countCertifyRepairs(rep)
		s.rec.Count("certify.fail", 1)
		s.quarantine(j, ce)
		j.mu.Lock()
		j.errCode = "result_uncertified"
		j.mu.Unlock()
		s.rec.Count("certify.uncertified", 1)
		s.finish(j, StateFailed, nil, err.Error())
	case errors.As(err, &pe):
		// The snapshot is durably written: resume it later, possibly on
		// another worker.
		j.mu.Lock()
		j.preemptions++
		j.mu.Unlock()
		s.rec.Count("serve.preemptions", 1)
		s.requeue(j, true)
	case j.ctx.Err() != nil && errors.Is(err, j.ctx.Err()):
		s.finishInterrupted(j)
	case actx.Err() != nil:
		// Only the attempt was canceled: the watchdog struck a stalled
		// run. Requeue through the checkpoint path or, past the strike
		// budget, fail terminally.
		s.watchdogRequeue(j)
	default:
		s.finish(j, StateFailed, nil, err.Error())
	}
}

// certifyResult independently certifies a finished attempt's final
// positions against its report, on the scheduler's own checker — the gate
// must not trust the run it is gating. Context errors pass through as-is:
// an aborted check says nothing about the result.
func (s *Scheduler) certifyResult(ctx context.Context, j *Job, rep *placer.Report) error {
	chk := &certify.Checker{Obs: s.rec, Ctx: ctx, Level: -1}
	return chk.Placement(j.n, j.mbs, certify.Reported{
		HPWL:          rep.HPWL,
		Violations:    rep.Violations,
		Overlaps:      rep.Overlaps,
		Legalized:     !j.cfg.SkipLegalization,
		TargetDensity: j.cfg.TargetDensity,
	})
}

// countCertifyRepairs surfaces the placer's certify repairs, recorded on
// the job's recorder, on the service counters: each "safe-mode" entry is
// one failed certificate and one re-run.
func (s *Scheduler) countCertifyRepairs(rep *placer.Report) {
	if rep == nil {
		return
	}
	for _, d := range rep.Degradations {
		if d.Stage == "certify" && d.Fallback == "safe-mode" {
			s.rec.Count("certify.fail", 1)
			s.rec.Count("certify.repair", 1)
		}
	}
}

// quarantine preserves an uncertifiable result for post-mortem under the
// job's state directory: the violated certificate and the exact positions
// (hex float64 bits) the failed attempt left. Quarantine is diagnostics,
// not correctness — failures are counted, never fatal.
func (s *Scheduler) quarantine(j *Job, ce *certify.Error) {
	if j.dir == "" {
		return
	}
	dir := filepath.Join(j.dir, "quarantine")
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		detail := fmt.Sprintf("%s\nlayer: %s\nlevel: %d\ninvariant: %s\nwitness: %s\n",
			ce.Error(), ce.Layer, ce.Level, ce.Invariant, ce.Witness)
		err = os.WriteFile(filepath.Join(dir, "certify.txt"), []byte(detail), 0o644)
	}
	if err == nil {
		var buf bytes.Buffer
		_ = chipio.WriteHex(&buf, j.n.X, j.n.Y) // a bytes.Buffer write cannot fail
		err = os.WriteFile(filepath.Join(dir, "positions.hex"), buf.Bytes(), 0o644)
	}
	if err != nil {
		s.rec.Count("certify.quarantine.errors", 1)
		return
	}
	s.rec.Count("certify.quarantined", 1)
}

// runningLocked lists the running jobs.
func (s *Scheduler) runningLocked() []*Job {
	out := make([]*Job, 0, len(s.running))
	for _, j := range s.running {
		out = append(out, j)
	}
	return out
}

// releaseRunningLocked removes j from the running set and returns its
// committed memory. The broadcast wakes every idle worker: the freed
// headroom may unblock several memory-gated queued jobs at once.
func (s *Scheduler) releaseRunningLocked(j *Job) {
	if _, ok := s.running[j.ID]; !ok {
		return
	}
	delete(s.running, j.ID)
	s.committed -= j.est.PeakBytes
	if s.committed < 0 {
		s.committed = 0
	}
	s.cond.Broadcast()
}

// buildResult captures the final (bit-exact) positions and report.
func buildResult(j *Job, rep *placer.Report) *Result {
	return &Result{
		X:            append([]float64(nil), j.n.X...),
		Y:            append([]float64(nil), j.n.Y...),
		HPWL:         rep.HPWL,
		Levels:       rep.Levels,
		Violations:   rep.Violations,
		Overlaps:     rep.Overlaps,
		GlobalTime:   rep.GlobalTime,
		LegalTime:    rep.LegalTime,
		Degradations: rep.Degradations,
		Certified:    rep.Certified,
	}
}

// finish is the one terminal transition. The first call for a job sets
// the state and outcome, releases its running slot and dissolves a flight
// it leads in one critical section: a done leader caches res and finishes
// its followers with it; a failed or canceled leader's followers are
// promoted, as the failure is the leader's alone. It then counts
// serve.<state>, feeds the drain rate unless canceled, persists the job
// and drops its snapshots before Done closes. Any later call changes
// nothing.
func (s *Scheduler) finish(j *Job, st State, res *Result, msg string) {
	var followers []*Job
	s.mu.Lock()
	if !j.terminate(st, res, msg) {
		s.mu.Unlock()
		return
	}
	s.releaseRunningLocked(j)
	// Only cacheable jobs lead flights, so a NoCache result is never stored.
	if fl, ok := s.flights[j.key]; ok && fl.leader == j {
		delete(s.flights, j.key)
		if st == StateDone {
			if ev := s.cache.put(j.key, res); ev > 0 {
				s.rec.Count("serve.cache.evictions", float64(ev))
			}
			followers = fl.followers
		} else {
			s.promoteLocked(fl.followers)
		}
	}
	if st != StateCanceled {
		s.noteDoneLocked()
	}
	s.updateGaugesLocked()
	s.mu.Unlock()
	s.rec.Count("serve."+string(st), 1)
	s.persist(j)
	if j.dir != "" {
		_ = os.RemoveAll(j.ckptDir()) // removal failures cost disk, nothing else
	}
	j.bc.Emit(obs.Event{Type: "state", Name: string(st)})
	// Release the job's context: a job admitted with TimeoutMS owns a
	// deadline timer that would otherwise stay armed until it fires.
	j.cancel()
	j.bc.Close()
	close(j.done)
	for _, f := range followers {
		s.finish(f, StateDone, res, "")
	}
}

// promoteLocked re-enqueues the live followers of a dissolved flight, the
// first as the new leader of the rest. The caller holds s.mu and has
// removed the old flight in the same critical section, so a concurrent
// identical Submit sees either the old flight or the promoted one.
func (s *Scheduler) promoteLocked(followers []*Job) {
	live := slices.DeleteFunc(followers, func(f *Job) bool { return f.State().Terminal() })
	if len(live) == 0 {
		return
	}
	s.flights[live[0].key] = &flight{leader: live[0], followers: live[1:]}
	heap.Push(&s.queue, live[0])
	s.cond.Signal()
}

// requeue puts a running job back in the queue: preemption, a watchdog
// strike and a shutdown hard-cancel all end an attempt this way.
// resumable says whether the next attempt resumes from the job's
// checkpoint directory or starts fresh; the caller counts why.
func (s *Scheduler) requeue(j *Job, resumable bool) {
	j.preempt.Store(false)
	j.mu.Lock()
	j.resumable = resumable
	j.mu.Unlock()
	s.mu.Lock()
	s.releaseRunningLocked(j)
	// Queued before it is visible in the heap: claimLocked drops a popped
	// job that is not queued, so a worker popping it before this
	// transition would lose it for good.
	j.setState(StateQueued)
	heap.Push(&s.queue, j)
	s.cond.Signal()
	s.updateGaugesLocked()
	s.mu.Unlock()
	s.persist(j)
}

// finishInterrupted handles a context-aborted run: a user cancellation
// finishes the job, a deadline fails it, and a shutdown hard-cancel
// requeues it (persisted as queued, resumable from its last per-level
// snapshot) for the next process.
func (s *Scheduler) finishInterrupted(j *Job) {
	j.mu.Lock()
	user := j.userCanceled
	j.mu.Unlock()
	s.mu.Lock()
	drain := s.shutdown
	s.mu.Unlock()
	switch {
	case user:
		s.finish(j, StateCanceled, nil, "canceled")
	case drain:
		s.requeue(j, j.ckptStore().HasSnapshot())
	default:
		s.finish(j, StateFailed, nil, "deadline exceeded: "+j.ctx.Err().Error())
	}
}

// Shutdown drains the scheduler: submissions are refused, idle workers
// exit, and every running job is asked to checkpoint at its next level
// boundary and requeue (persisted for the next process). When ctx expires
// before the drain completes, the still-running jobs are hard-canceled —
// they remain resumable from their last per-level snapshot — and a
// non-nil error reports the overrun.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutdown {
		s.shutdown = true
		s.rec.Count("serve.shutdowns", 1)
		s.cond.Broadcast()
	}
	running := s.runningLocked()
	s.mu.Unlock()
	for _, j := range running {
		j.preempt.Store(true)
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	// The governor outlives the drain on purpose: a stalled attempt
	// (serve.stall, wedged solver) only unblocks when the watchdog cancels
	// it, so stopping the governor first could deadlock the drain.
	stopGovernor := func() {
		s.stop.Do(func() { close(s.quit) })
		s.gwg.Wait()
	}
	select {
	case <-done:
		stopGovernor()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		still := s.runningLocked()
		s.mu.Unlock()
		for _, j := range still {
			j.cancel()
		}
		<-done
		stopGovernor()
		return fmt.Errorf("serve: drain deadline exceeded, %d running jobs hard-canceled (resumable from their last level snapshot): %w",
			len(still), ctx.Err())
	}
}

// Stats is the /stats snapshot.
type Stats struct {
	// Counters and Gauges are the serve.* metrics (queue depth, running,
	// preemptions, cache hits/misses, degradations, ...).
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges"`
	// Jobs counts known jobs by state.
	Jobs map[string]int `json:"jobs"`
	// CacheEntries is the current LRU population, Workers the pool size.
	CacheEntries int `json:"cache_entries"`
	Workers      int `json:"workers"`
	// Governance is the resource-governance snapshot (see govern.go).
	Governance GovStats `json:"governance"`
}

// GovStats is the governance section of /stats: the admission and
// memory state an operator (or load balancer) steers by.
type GovStats struct {
	// MemBudgetBytes/MemCommittedBytes are the budget and the running
	// jobs' predicted peaks; MemMeasuredBytes the last sampled heap.
	MemBudgetBytes    int64 `json:"mem_budget_bytes"`
	MemCommittedBytes int64 `json:"mem_committed_bytes"`
	MemMeasuredBytes  int64 `json:"mem_measured_bytes"`
	// MemBlocked reports a queued job waiting on memory headroom.
	MemBlocked bool `json:"mem_blocked"`
	// QueueLimit/QueueDepth are the admission bound and current depth.
	QueueLimit int `json:"queue_limit"`
	QueueDepth int `json:"queue_depth"`
	// RetryAfterS is the current backoff hint a rejected client would get.
	RetryAfterS float64 `json:"retry_after_s"`
	// Degradations lists the recorded governance degradation events
	// (watchdog strikes).
	Degradations []string `json:"degradations,omitempty"`
}

// Stats returns a consistent snapshot of the scheduler's metrics.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Counters:     s.rec.Counters(),
		Gauges:       s.rec.Gauges(),
		Jobs:         map[string]int{},
		CacheEntries: s.cache.len(),
		Workers:      s.opt.Workers,
	}
	s.mu.Lock()
	st.Governance = GovStats{
		MemBudgetBytes:    s.opt.MemBudget,
		MemCommittedBytes: s.committed,
		MemMeasuredBytes:  s.measured,
		MemBlocked:        s.memBlocked,
		QueueLimit:        s.opt.QueueLimit,
		QueueDepth:        s.queue.Len(),
		RetryAfterS:       s.retryAfterLocked().Seconds(),
	}
	s.mu.Unlock()
	for _, ev := range s.dl.Events() {
		st.Governance.Degradations = append(st.Governance.Degradations, ev.String())
	}
	for _, j := range s.Jobs() {
		st.Jobs[string(j.State())]++
	}
	return st
}

// Readiness is the /readyz view: whether the service should receive new
// traffic, and if not, why and when to retry.
type Readiness struct {
	Ready       bool    `json:"ready"`
	Reason      string  `json:"reason,omitempty"`
	RetryAfterS float64 `json:"retry_after_s,omitempty"`
}

// Readiness reports whether the scheduler should receive new traffic:
// not while draining or with a saturated queue. Liveness (/healthz) is
// separate and never degrades — the process is alive even when it is
// refusing work.
func (s *Scheduler) Readiness() Readiness {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.shutdown:
		return Readiness{Reason: "draining"}
	case s.opt.QueueLimit > 0 && s.queue.Len() >= s.opt.QueueLimit:
		return Readiness{Reason: "queue_saturated", RetryAfterS: s.retryAfterLocked().Seconds()}
	default:
		return Readiness{Ready: true}
	}
}

func (s *Scheduler) updateGaugesLocked() {
	s.rec.Gauge("serve.queue.depth", float64(s.queue.Len()))
	s.rec.Gauge("serve.running", float64(len(s.running)))
	s.rec.Gauge("serve.jobs.known", float64(len(s.jobs)))
	s.rec.Gauge("serve.mem.committed", float64(s.committed))
	s.rec.Gauge("serve.queue.blocked", b2f(s.memBlocked))
}

// b2f is a flag as a 0/1 gauge value.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// jobFile is the persisted form of a job (StateDir/jobs/<id>/job.json),
// enough for a restarted scheduler to resume it: the full spec (instances
// reload deterministically — synthetic chips regenerate from their seed,
// file references re-read) plus the lifecycle state.
type jobFile struct {
	ID          string `json:"id"`
	Seq         uint64 `json:"seq"`
	State       State  `json:"state"`
	Preemptions int    `json:"preemptions"`
	Error       string `json:"error,omitempty"`
	ErrorCode   string `json:"error_code,omitempty"`
	Spec        Spec   `json:"spec"`
}

// persist writes the job's state file atomically (temp + rename). A
// persist failure is counted, never fatal: the in-memory job keeps
// running, only restartability of this one job is lost.
func (s *Scheduler) persist(j *Job) {
	if j.dir == "" {
		return
	}
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	jf := jobFile{
		ID:          j.ID,
		Seq:         j.Seq,
		State:       j.state,
		Preemptions: j.preemptions,
		Error:       j.errText,
		ErrorCode:   j.errCode,
		Spec:        j.spec,
	}
	j.mu.Unlock()
	data, err := json.MarshalIndent(&jf, "", "  ")
	if err == nil {
		tmp := filepath.Join(j.dir, "job.json.tmp")
		err = os.WriteFile(tmp, data, 0o644)
		if err == nil {
			err = os.Rename(tmp, filepath.Join(j.dir, "job.json"))
		}
	}
	if err != nil {
		s.rec.Count("serve.persist.errors", 1)
	}
}

// recover reloads persisted jobs from a previous process: non-terminal
// jobs re-enter the queue (resuming from their checkpoints when present),
// terminal ones come back as historical records without results.
func (s *Scheduler) recover() error {
	dir := filepath.Join(s.stateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("serve: recover: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, e.Name(), "job.json"))
		if rerr != nil {
			continue // half-created job dir; nothing recoverable
		}
		var jf jobFile
		if json.Unmarshal(data, &jf) != nil || jf.ID == "" {
			continue
		}
		live := !jf.State.Terminal()
		var j *Job
		var jerr error
		if live {
			j, jerr = newJob(jf.ID, jf.Seq, jf.Spec, s.opt.FileRoot, s.gogc)
		}
		if jerr != nil {
			// The instance no longer loads (file reference gone): the job
			// cannot be resumed. The failed record is persisted, so a
			// later restart neither retries nor recounts it.
			jf.State, jf.Error = StateFailed, "recovery: "+jerr.Error()
			s.rec.Count("serve.failed", 1)
		}
		if j == nil {
			j = tombstoneJob(jf)
		} else {
			s.installContext(j)
			s.rec.Count("serve.recovered", 1)
		}
		j.dir = filepath.Join(dir, e.Name())
		j.mu.Lock()
		j.preemptions = jf.Preemptions
		j.resumable = j.ckptStore().HasSnapshot()
		j.mu.Unlock()
		s.mu.Lock()
		s.seq = max(s.seq, jf.Seq)
		if jf.State.Terminal() {
			s.registerLocked(j)
		} else {
			s.enqueueLocked(j)
		}
		s.mu.Unlock()
		if live {
			s.persist(j)
		}
	}
	return nil
}

// tombstoneJob rebuilds a terminal job record from its job file (no
// result: results are not persisted across restarts, only lifecycle
// state is); recover sets its directory and preemption count.
func tombstoneJob(jf jobFile) *Job {
	bc := obs.NewBroadcast(1)
	bc.Close()
	done := make(chan struct{})
	close(done)
	j := &Job{
		ID:        jf.ID,
		Seq:       jf.Seq,
		spec:      jf.Spec,
		bc:        bc,
		done:      done,
		state:     jf.State,
		errText:   jf.Error,
		errCode:   jf.ErrorCode,
		submitted: time.Now(),
	}
	j.ctx, j.cancel = context.WithCancel(context.Background())
	j.cancel()
	return j
}
