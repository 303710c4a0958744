package serve

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"fbplace/internal/gen"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
)

// LoadOptions configures RunLoad, the service's load-test harness.
type LoadOptions struct {
	// Jobs is how many jobs to submit (default 12), drawn from
	// gen.LoadMix(Jobs, Seed): mixed sizes, some with movebounds.
	Jobs int
	// Seed varies the mix deterministically.
	Seed int64
	// PriorityLevels cycles submissions through priorities
	// 0..PriorityLevels-1 (default 3), so higher-priority jobs land while
	// lower-priority ones run — exercising preemption.
	PriorityLevels int
	// Duplicates additionally re-submits every Duplicates-th spec once,
	// exercising the cache and single-flight under load.
	Duplicates int
	// Verify re-places every preempted or watchdog-requeued job directly
	// (no scheduler) and compares positions bit-for-bit — the
	// checkpoint-resume safety oracle.
	Verify bool
	// Stagger spaces submissions out (default 0: one burst), holding the
	// queue at depth over time — the chaos soak's sustained-load shape —
	// instead of spiking it once.
	Stagger time.Duration
	// Soak draws specs from gen.SoakMix instead of gen.LoadMix: smaller
	// instances, verbatim duplicates, and oversized over-budget bait.
	Soak bool
	// Scheduler options for the run.
	Sched Options
}

// LoadReport summarizes a load-test run.
type LoadReport struct {
	// Submitted/Rejected count admissions; Done/Failed/Canceled are the
	// terminal tallies (their sum equals Submitted when the run drained).
	Submitted, Rejected    int
	Done, Failed, Canceled int
	// Preempted is how many jobs were preempted at least once, and
	// Preemptions the total across jobs.
	Preempted, Preemptions int
	// Requeued is how many jobs the watchdog requeued at least once,
	// Stuck how many it failed terminally after the strike budget.
	Requeued, Stuck int
	// CacheHits and Coalesced count duplicate submissions served without
	// a placement of their own.
	CacheHits, Coalesced int
	// Mismatched lists preempted jobs whose final positions differ from
	// an uninterrupted direct run — always empty unless the bit-identity
	// contract is broken.
	Mismatched []string
	// NonTerminal lists jobs that failed to reach a terminal state before
	// the drain deadline (always empty on a healthy run).
	NonTerminal []string
	Elapsed     time.Duration
	// Counters is the scheduler's final serve.* counter snapshot.
	Counters map[string]float64
}

func (r *LoadReport) String() string {
	return fmt.Sprintf("load: %d submitted (%d rejected), %d done / %d failed / %d canceled / %d stuck, %d jobs preempted (%d preemptions), %d requeued, %d cache hits, %d coalesced, %d mismatched, %v",
		r.Submitted, r.Rejected, r.Done, r.Failed, r.Canceled, r.Stuck,
		r.Preempted, r.Preemptions, r.Requeued, r.CacheHits, r.Coalesced, len(r.Mismatched), r.Elapsed.Round(time.Millisecond))
}

// RunLoad drives a scheduler with a burst of mixed-size, mixed-priority
// jobs, waits for every admitted job to reach a terminal state, and
// (optionally) proves the preemption bit-identity contract by re-placing
// every preempted job uninterrupted and comparing positions bit-for-bit.
// Fault sites armed by the caller (serve.accept, ckpt.write, ...) fire
// during the run; admission rejections are counted, not fatal.
func RunLoad(ctx context.Context, opt LoadOptions) (*LoadReport, error) {
	if opt.Jobs <= 0 {
		opt.Jobs = 12
	}
	if opt.PriorityLevels <= 0 {
		opt.PriorityLevels = 3
	}
	s, err := NewScheduler(opt.Sched)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	specs := gen.LoadMix(opt.Jobs, opt.Seed)
	if opt.Soak {
		specs = gen.SoakMix(opt.Jobs, opt.Seed)
	}
	rep := &LoadReport{}
	var jobs []*Job
	submit := func(spec Spec) {
		j, err := s.Submit(spec)
		if err != nil {
			rep.Rejected++
			return
		}
		rep.Submitted++
		jobs = append(jobs, j)
	}
	for i, cs := range specs {
		cs := cs
		submit(Spec{
			Chip: &cs,
			// Later submissions get higher priorities, so they find every
			// worker busy with lower-priority work and must preempt.
			Priority: i % opt.PriorityLevels,
			Knobs:    Knobs{SkipLegalization: false},
		})
		if opt.Duplicates > 0 && i%opt.Duplicates == 0 {
			submit(Spec{Chip: &cs, Priority: i % opt.PriorityLevels})
		}
		if opt.Stagger > 0 && i < len(specs)-1 {
			select {
			case <-time.After(opt.Stagger):
			case <-ctx.Done():
			}
		}
	}

	// Drain: every admitted job must reach a terminal state.
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-ctx.Done():
			rep.NonTerminal = append(rep.NonTerminal, j.ID)
		}
	}
	if err := s.Shutdown(ctx); err != nil {
		return rep, err
	}
	rep.Elapsed = time.Since(start)

	for _, j := range jobs {
		st := j.Status()
		switch st.State {
		case StateDone:
			rep.Done++
		case StateFailed:
			rep.Failed++
		case StateCanceled:
			rep.Canceled++
		default:
			rep.NonTerminal = append(rep.NonTerminal, j.ID)
		}
		if st.Preemptions > 0 {
			rep.Preempted++
			rep.Preemptions += st.Preemptions
		}
		if st.Requeues > 0 {
			rep.Requeued++
		}
		if st.State == StateFailed && errorTextIsStuck(st.Error) {
			rep.Stuck++
		}
		if st.Cached {
			rep.CacheHits++
		}
		if st.Coalesced {
			rep.Coalesced++
		}
	}
	rep.Counters = s.Obs().Counters()

	if opt.Verify {
		for _, j := range jobs {
			if st := j.Status(); (st.Preemptions == 0 && st.Requeues == 0) || st.State != StateDone {
				continue
			}
			ok, err := verifyDirect(ctx, j)
			if err != nil {
				return rep, fmt.Errorf("serve: verifying %s: %w", j.ID, err)
			}
			if !ok {
				rep.Mismatched = append(rep.Mismatched, j.ID)
			}
		}
	}
	return rep, nil
}

// errorTextIsStuck recognizes a terminal JobStuck failure from the
// persisted error text (Result/Status carry text, not wrapped errors).
func errorTextIsStuck(text string) bool {
	return strings.Contains(text, ErrJobStuck.Error())
}

// verifyDirect re-places the job's instance uninterrupted — fresh load, no
// scheduler, no preemption, no checkpoints — and reports whether the
// positions match the served result bit-for-bit.
func verifyDirect(ctx context.Context, j *Job) (bool, error) {
	res, err := j.Result()
	if err != nil {
		return false, err
	}
	spec := j.spec
	n, mbs, err := loadInstance(&spec, j.fileRoot)
	if err != nil {
		return false, err
	}
	cfg, err := spec.Knobs.config(mbs)
	if err != nil {
		return false, err
	}
	cfg.Workers = 1
	cfg.Obs = (*obs.Recorder)(nil)
	if _, err := placer.PlaceCtx(ctx, n, cfg); err != nil {
		return false, err
	}
	if len(n.X) != len(res.X) {
		return false, nil
	}
	for i := range n.X {
		if math.Float64bits(n.X[i]) != math.Float64bits(res.X[i]) ||
			math.Float64bits(n.Y[i]) != math.Float64bits(res.Y[i]) {
			return false, nil
		}
	}
	return true, nil
}
