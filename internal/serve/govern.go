// Resource governance: the scheduler's defenses against overload. Three
// mechanisms share the state on Scheduler (all guarded by s.mu):
//
//   - Admission control. Every submission is priced by estimateJob; a job
//     whose predicted peak exceeds the whole memory budget is refused with
//     a structured over-budget error (503), and a job that would push the
//     queue past QueueLimit is refused queue-full (429) with a Retry-After
//     projected from the observed completion rate.
//   - Memory-watermark start gating. Workers only start a queued job when
//     the sum of running jobs' predicted peaks plus its own fits the
//     budget (one job may always run, for liveness). A memory-blocked job
//     waits in the queue; every finished or requeued attempt releases its
//     footprint and wakes the workers, and the watchdog makes sure running
//     attempts do end.
//   - Disk garbage collection. The governor GCs terminal job directories
//     beyond a retention cap, removes orphaned job directories and prunes
//     stale checkpoint generations. A failed checkpoint write is the
//     placer's to absorb: the run records ckpt.write -> skipped and keeps
//     every older generation.
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
	if errors.Is(e.err, ErrQueueFull) {
		return "queue_full"
	}
	return "over_budget"
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

const (
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
// gauge for operators, not start gating: gating stays on the
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
// strikes stalled jobs and collects garbage. It runs until Shutdown has
// drained the workers.
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
			s.watchdogScan()
			s.gcTick()
		}
	}
}
