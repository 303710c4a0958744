// Resource governance: the scheduler's defenses against overload. Four
// mechanisms share the state on Scheduler (all guarded by s.mu):
//
//   - Admission control. Every submission is priced by estimateJob; a job
//     whose predicted peak exceeds the whole memory budget is refused with
//     a structured over-budget error (503), and a job that would push the
//     queue past QueueLimit is refused queue-full (429). Queue-full and
//     brownout refusals carry a Retry-After projected from the observed
//     completion rate.
//   - Memory-watermark start gating. Workers only start a queued job when
//     the sum of running jobs' predicted peaks plus its own fits the
//     budget (one job may always run, for liveness). When a queued job is
//     memory-blocked, the governor preempts the cheapest-to-resume
//     running job — fewest completed levels, then largest footprint —
//     through the checkpoint path, time-multiplexing memory at level
//     granularity instead of starving the queue.
//   - Brownout ladder. Level 1 (shed renders: SSE/SVG) when committed
//     memory crosses the high watermark or a queued job is memory
//     blocked; level 2 (shed new submissions too) when the queue is also
//     at least half full. Placements themselves are never shed: accepted
//     work always finishes. Transitions land in the degradation log as
//     degrade.brownout entries.
//   - Disk governance. The governor GCs terminal job directories beyond a
//     retention cap, removes orphaned job directories and stale
//     checkpoint generations, and — below DiskLowBytes of free space —
//     disables checkpointing for new attempts (degrading preemptibility,
//     recorded as degrade.disk) rather than risk torn snapshots.
package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Admission rejection sentinels, matched with errors.Is.
var (
	// ErrQueueFull rejects a submission that would overflow the bounded
	// queue (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrOverBudget rejects a job whose predicted peak memory exceeds the
	// whole process budget — it could never be started (HTTP 503).
	ErrOverBudget = errors.New("serve: predicted footprint exceeds the memory budget")
	// ErrBrownout rejects submissions while the service is shedding load
	// (HTTP 503).
	ErrBrownout = errors.New("serve: brownout, shedding submissions")
)

// AdmissionError is a structured admission rejection: which limit was
// hit (the wrapped sentinel), the suggested HTTP status, and the
// server's backoff hint (zero when retrying cannot help, as for
// over-budget jobs).
type AdmissionError struct {
	Status     int
	Detail     string
	RetryAfter time.Duration
	err        error
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("serve: admission: %v (%s)", e.err, e.Detail)
}

func (e *AdmissionError) Unwrap() error { return e.err }

// Code is the machine-readable error-envelope code.
func (e *AdmissionError) Code() string {
	switch {
	case errors.Is(e.err, ErrQueueFull):
		return "queue_full"
	case errors.Is(e.err, ErrOverBudget):
		return "over_budget"
	default:
		return "brownout"
	}
}

// JobStuckError is the terminal error of a job the watchdog gave up on:
// K attempts in a row made no observable progress inside the no-progress
// window.
type JobStuckError struct {
	ID      string
	Strikes int
	Window  time.Duration
}

// ErrJobStuck is the sentinel wrapped by JobStuckError.
var ErrJobStuck = errors.New("serve: job stuck")

func (e *JobStuckError) Error() string {
	return fmt.Sprintf("%v: %s made no progress within %v on %d consecutive attempts",
		ErrJobStuck, e.ID, e.Window, e.Strikes)
}

func (e *JobStuckError) Unwrap() error { return ErrJobStuck }

// Brownout ladder levels. The ladder degrades cheapest-first: renders are
// reconstructible from results, submissions can be retried, but an
// accepted placement is the product and is never shed.
const (
	brownoutOff         = 0 // normal operation
	brownoutShedRenders = 1 // SSE/SVG/render endpoints answer 503
	brownoutShedSubmits = 2 // new submissions answer 503 too
)

// brownoutName labels a ladder level for degradation entries and /stats.
func brownoutName(lvl int) string {
	switch lvl {
	case brownoutShedRenders:
		return "shed-renders"
	case brownoutShedSubmits:
		return "shed-submissions"
	default:
		return "off"
	}
}

const (
	// highWatermarkFrac of the memory budget committed enters brownout
	// level 1 (and arms memory preemption when a queued job is blocked).
	highWatermarkFrac = 0.85
	// retryAfterMin/Max clamp the backoff hint.
	retryAfterMin = time.Second
	retryAfterMax = 2 * time.Minute
	// drainRateWindow is how far back completions count toward the
	// observed drain rate.
	drainRateWindow    = time.Minute
	defaultMemFallback = 4 << 30
	// gcOrphanAge is how old an on-disk job directory with no in-memory
	// job must be before the GC removes it.
	gcOrphanAge = 5 * time.Minute
)

// defaultMemBudget reads the machine's available memory (3/4 of
// MemAvailable on Linux) and falls back to 4 GiB where that is not
// exposed.
func defaultMemBudget() int64 {
	if b := memAvailable(); b > 0 {
		return b / 4 * 3
	}
	return defaultMemFallback
}

// recomputeGovLocked re-derives the brownout level from the committed
// memory watermark, the memory-blocked flag and the queue depth. Called
// from updateGaugesLocked, so every scheduler transition re-evaluates the
// ladder. Transitions are recorded in the degradation log.
func (s *Scheduler) recomputeGovLocked() {
	lvl := brownoutOff
	if s.opt.MemBudget > 0 {
		frac := float64(s.committed) / float64(s.opt.MemBudget)
		if frac >= highWatermarkFrac || s.memBlocked {
			lvl = brownoutShedRenders
			if s.opt.QueueLimit > 0 && s.queue.Len() >= (s.opt.QueueLimit+1)/2 {
				lvl = brownoutShedSubmits
			}
		}
	}
	if lvl == s.brownout {
		return
	}
	from := s.brownout
	s.brownout = lvl
	if lvl > brownoutOff {
		s.rec.Count("serve.brownout.enter", 1)
	}
	s.dl.Add("brownout", brownoutName(lvl),
		fmt.Sprintf("level %d -> %d (committed %d of %d bytes, queue %d)",
			from, lvl, s.committed, s.opt.MemBudget, s.queue.Len()))
}

// brownoutState returns the current ladder level and the backoff hint a
// shed request should carry.
func (s *Scheduler) brownoutState() (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.brownout, s.retryAfterLocked()
}

// retryAfterLocked computes the backoff hint: with two or more
// completions inside drainRateWindow, the observed drain rate projects
// when a queue slot frees; with fewer, the hint is the retryAfterMin
// floor. Clamped to [1s, 2m].
func (s *Scheduler) retryAfterLocked() time.Duration {
	cut := time.Now().Add(-drainRateWindow)
	var recent []time.Time
	for _, t := range s.doneTimes {
		if t.After(cut) {
			recent = append(recent, t)
		}
	}
	if len(recent) < 2 {
		return retryAfterMin
	}
	perJob := recent[len(recent)-1].Sub(recent[0]) / time.Duration(len(recent)-1)
	eta := perJob * time.Duration(s.queue.Len()+1) / time.Duration(s.opt.Workers)
	return min(max(eta, retryAfterMin), retryAfterMax)
}

// noteDoneLocked feeds the drain-rate ring with one completion.
func (s *Scheduler) noteDoneLocked() {
	s.doneTimes = append(s.doneTimes, time.Now())
	if n := len(s.doneTimes); n > 64 {
		s.doneTimes = append(s.doneTimes[:0], s.doneTimes[n-64:]...)
	}
}

// fitsLocked reports whether j's predicted footprint fits under the
// budget next to the already-running jobs. With nothing running, one job
// always fits: admission has already refused jobs bigger than the whole
// budget, and a recovered oversized job must still be allowed to drain.
func (s *Scheduler) fitsLocked(j *Job) bool {
	if s.opt.MemBudget <= 0 {
		return true
	}
	if len(s.running) == 0 {
		return true
	}
	return s.committed+j.est.PeakBytes <= s.opt.MemBudget
}

// sampleMemory publishes the measured process heap next to the committed
// estimate. Measured memory is advisory — it drives the serve.mem.measured
// gauge for operators, not the ladder: the ladder stays on the
// deterministic committed estimate so governance decisions are
// reproducible under test.
func (s *Scheduler) sampleMemory() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	s.measured = int64(ms.HeapAlloc)
	s.mu.Unlock()
	s.rec.Gauge("serve.mem.measured", float64(ms.HeapAlloc))
}

// checkDisk flips the low-disk degradation: below DiskLowBytes of free
// space, new attempts run without checkpointing (a torn snapshot on a
// full disk is worse than losing preemptibility). Transitions are
// recorded as degrade.disk entries.
func (s *Scheduler) checkDisk() {
	if s.opt.DiskLowBytes <= 0 {
		return
	}
	free, ok := diskFree(s.stateDir)
	if !ok {
		return
	}
	low := free < s.opt.DiskLowBytes
	s.mu.Lock()
	was := s.lowDisk
	s.lowDisk = low
	s.mu.Unlock()
	if low && !was {
		s.rec.Count("serve.disk.low", 1)
		s.dl.Add("disk", "ckpt-disabled",
			fmt.Sprintf("%d bytes free < %d low watermark", free, s.opt.DiskLowBytes))
	}
	if !low && was {
		s.dl.Add("disk", "ckpt-restored", fmt.Sprintf("%d bytes free", free))
	}
}

// memoryPressure preempts the cheapest-to-resume running job when a
// queued job is memory-blocked: fewest completed levels (least work to
// redo on resume), then largest predicted footprint (frees the most
// headroom), then newest submission. At most one victim per tick, and
// only jobs whose current attempt is checkpointing (and not already
// asked to yield) qualify — a preempt request without a checkpoint path
// would never land.
func (s *Scheduler) memoryPressure() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.memBlocked || len(s.running) == 0 {
		return
	}
	var victim *Job
	var victimLevels int
	for _, r := range s.running {
		if r.preempt.Load() || !r.ckptEnabled() {
			continue
		}
		lv := r.Status().LevelsDone
		if victim == nil ||
			lv < victimLevels ||
			(lv == victimLevels && r.est.PeakBytes > victim.est.PeakBytes) ||
			(lv == victimLevels && r.est.PeakBytes == victim.est.PeakBytes && r.Seq > victim.Seq) {
			victim = r
			victimLevels = lv
		}
	}
	if victim == nil {
		return
	}
	victim.preempt.Store(true)
	s.rec.Count("serve.preempt.memory", 1)
	s.dl.Add("memory", "preempt",
		fmt.Sprintf("%s yields at its next level boundary (committed %d of %d bytes)",
			victim.ID, s.committed, s.opt.MemBudget))
}

// gcTick is the disk governor: terminal jobs beyond the retention cap
// are forgotten (memory and disk — their IDs then answer 404), orphaned
// job directories older than gcOrphanAge are removed, and non-terminal
// jobs' checkpoint directories are pruned to the newest generations.
func (s *Scheduler) gcTick() {
	var victims []*Job
	var live []*Job
	s.mu.Lock()
	if s.opt.GCKeepTerminal > 0 {
		var terminal []*Job
		for _, j := range s.order {
			if j.State().Terminal() {
				terminal = append(terminal, j)
			} else {
				live = append(live, j)
			}
		}
		if drop := len(terminal) - s.opt.GCKeepTerminal; drop > 0 {
			victims = terminal[:drop]
			for _, j := range victims {
				delete(s.jobs, j.ID)
			}
			kept := make([]*Job, 0, len(s.order)-drop)
			for _, j := range s.order {
				if _, ok := s.jobs[j.ID]; ok {
					kept = append(kept, j)
				}
			}
			s.order = kept
			s.updateGaugesLocked()
		}
	} else {
		for _, j := range s.order {
			if !j.State().Terminal() {
				live = append(live, j)
			}
		}
	}
	s.mu.Unlock()
	for _, j := range victims {
		if j.dir != "" {
			_ = os.RemoveAll(j.dir) // removal failures cost disk, nothing else
		}
		s.rec.Count("serve.gc.jobs", 1)
	}
	s.gcOrphans()
	for _, j := range live {
		if j.dir == "" {
			continue
		}
		if n, err := j.ckptStore().GC(); err == nil && n > 0 {
			s.rec.Count("serve.gc.ckpts", float64(n))
		}
	}
}

// gcOrphans removes on-disk job directories with no in-memory job. The
// age guard keeps it from racing a Submit that has created the directory
// but not yet registered the job.
func (s *Scheduler) gcOrphans() {
	dir := filepath.Join(s.stateDir, "jobs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-gcOrphanAge)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		s.mu.Lock()
		_, known := s.jobs[e.Name()]
		s.mu.Unlock()
		if known {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.RemoveAll(filepath.Join(dir, e.Name())) == nil {
			s.rec.Count("serve.gc.orphans", 1)
		}
	}
}

// governLoop is the governor goroutine: every tick it samples memory,
// checks disk, strikes stalled jobs, relieves memory pressure and
// collects garbage. It runs until Shutdown has drained the workers.
func (s *Scheduler) governLoop() {
	defer s.gwg.Done()
	t := time.NewTicker(s.opt.governTick)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
			s.sampleMemory()
			s.checkDisk()
			s.watchdogScan()
			s.memoryPressure()
			s.gcTick()
		}
	}
}
