// The stuck-job watchdog. Every running attempt carries a heartbeat
// (Job.lastBeat) driven by the obs.Progress hook: span starts/ends at
// level, wave and solve granularity, checkpoint writes included (the
// ckpt.write span). The governor scans running jobs each tick; an attempt whose
// heartbeat is older than NoProgress earns a strike and has its
// per-attempt context canceled. The worker then requeues the job through
// the checkpoint path — resuming is bit-identical by the PR 5 oracle —
// or, after StuckStrikes consecutive no-progress attempts, fails it
// terminally with JobStuckError. A strike counter resets whenever the
// job completes a level, so a merely slow job that keeps advancing never
// accumulates its way to a terminal failure.
package serve

import (
	"fmt"
	"time"

	"fbplace/internal/faultsim"
)

// stallFault freezes a running placement at a level boundary until its
// attempt is canceled — the deterministic stand-in for a wedged solver,
// used by the watchdog tests and the chaos soak.
var stallFault = faultsim.Register("serve.stall",
	"a running placement stalls at a level boundary until its attempt is canceled")

// watchdogScan strikes every running job whose heartbeat has gone stale.
// Attempts already canceled (by a previous strike, a user cancel or
// shutdown) are skipped so one stall is one strike, not one per tick.
func (s *Scheduler) watchdogScan() {
	if s.opt.NoProgress <= 0 {
		return
	}
	s.mu.Lock()
	running := s.runningLocked()
	s.mu.Unlock()
	now := time.Now()
	for _, j := range running {
		j.mu.Lock()
		cancel := j.attemptCancel
		canceled := j.attemptCtx != nil && j.attemptCtx.Err() != nil
		j.mu.Unlock()
		if cancel == nil || canceled {
			continue
		}
		last := time.Unix(0, j.lastBeat.Load())
		if now.Sub(last) < s.opt.NoProgress {
			continue
		}
		j.mu.Lock()
		j.strikes++
		k := j.strikes
		j.mu.Unlock()
		s.rec.Count("serve.watchdog.strikes", 1)
		s.dl.Add("watchdog", "preempt-requeue",
			fmt.Sprintf("%s: no progress for %v (strike %d of %d)",
				j.ID, now.Sub(last).Round(time.Millisecond), k, s.opt.StuckStrikes))
		cancel()
	}
}

// watchdogRequeue finishes an attempt the watchdog canceled: the job goes
// back in the queue, resumable from its last level-boundary snapshot when
// one exists (the resumed result is bit-identical; without a snapshot the
// retry restarts fresh, which is the same trajectory by determinism). At
// StuckStrikes consecutive no-progress attempts the job fails terminally
// instead — something environmental has it wedged and retrying burns a
// worker forever.
func (s *Scheduler) watchdogRequeue(j *Job) {
	j.mu.Lock()
	strikes := j.strikes
	j.wdRequeues++
	j.mu.Unlock()
	if strikes >= s.opt.StuckStrikes {
		s.rec.Count("serve.watchdog.stuck", 1)
		s.finish(j, StateFailed, nil, (&JobStuckError{ID: j.ID, Strikes: strikes, Window: s.opt.NoProgress}).Error())
		return
	}
	s.rec.Count("serve.watchdog.requeues", 1)
	s.requeue(j, j.ckptStore().HasSnapshot())
}
