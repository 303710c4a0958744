package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
)

// estOf prices a spec the way admission does, so tests can derive budgets
// from the same model the scheduler enforces.
func estOf(t *testing.T, spec Spec) Estimate {
	t.Helper()
	j, err := newJob("est", 0, spec, "", gcPercent())
	if err != nil {
		t.Fatal(err)
	}
	return j.est
}

func TestAdmissionOverBudget(t *testing.T) {
	defer leakcheck.Check(t)
	// A 1 MiB budget is below the base footprint: every job is refused.
	s := testSched(t, Options{Workers: 1, MemBudget: 1 << 20, governTick: -1})
	_, err := s.Submit(chipSpec(300, 60))
	var ae *AdmissionError
	if !errors.As(err, &ae) || !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over-budget submit: %v, want AdmissionError wrapping ErrOverBudget", err)
	}
	if ae.Status != 503 || ae.Code() != "over_budget" {
		t.Fatalf("over-budget error: status %d code %q, want 503 over_budget", ae.Status, ae.Code())
	}
	if ae.RetryAfter != 0 {
		t.Fatalf("over-budget RetryAfter %v, want 0 — retrying cannot help", ae.RetryAfter)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs registered after a rejected submission", n)
	}
	// The rejected job left no state directory behind.
	entries, err := os.ReadDir(filepath.Join(s.StateDir(), "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected submission left %d job dirs behind", len(entries))
	}
	if c := s.Obs().Counters(); c["serve.rejected.overbudget"] != 1 {
		t.Fatalf("serve.rejected.overbudget=%g, want 1", c["serve.rejected.overbudget"])
	}
}

func TestAdmissionQueueFullAndExemptions(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	s := testSched(t, Options{Workers: 1, QueueLimit: 1, governTick: -1})
	long := Spec{Chip: &gen.ChipSpec{NumCells: 2000, Seed: 61}, Knobs: Knobs{MaxLevels: 5}}
	a, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning, 30*time.Second)
	b, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 2000, Seed: 62}, Knobs: Knobs{MaxLevels: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// Queue full: a third distinct job bounces with 429 + Retry-After.
	_, err = s.Submit(chipSpec(400, 63))
	var ae *AdmissionError
	if !errors.As(err, &ae) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit: %v, want AdmissionError wrapping ErrQueueFull", err)
	}
	if ae.Status != 429 || ae.Code() != "queue_full" || ae.RetryAfter <= 0 {
		t.Fatalf("queue-full error: status %d code %q retry %v", ae.Status, ae.Code(), ae.RetryAfter)
	}
	// No job has completed yet, so there is no drain rate to project
	// from: the hint is the floor.
	if ae.RetryAfter != retryAfterMin {
		t.Fatalf("queue-full RetryAfter %v with no completions, want the %v floor", ae.RetryAfter, retryAfterMin)
	}
	// A duplicate of the running job coalesces onto its flight: no queue
	// slot needed, so the full queue must not refuse it.
	dup, err := s.Submit(long)
	if err != nil {
		t.Fatalf("coalesced duplicate refused by the full queue: %v", err)
	}
	waitDone(t, a, 120*time.Second)
	waitDone(t, b, 120*time.Second)
	waitDone(t, dup, 120*time.Second)
	if !dup.Status().Coalesced {
		t.Fatalf("duplicate was not coalesced: %+v", dup.Status())
	}
	// Same exemption for cache hits: refill the queue, then resubmit the
	// finished spec — it is served from the cache without a slot.
	c, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 2000, Seed: 64}, Knobs: Knobs{MaxLevels: 5}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, c.ID, StateRunning, 30*time.Second)
	d, err := s.Submit(chipSpec(400, 65))
	if err != nil {
		t.Fatal(err)
	}
	hit, err := s.Submit(long)
	if err != nil {
		t.Fatalf("cache hit refused by the full queue: %v", err)
	}
	waitDone(t, hit, 30*time.Second)
	if !hit.Status().Cached {
		t.Fatalf("resubmission not served from cache: %+v", hit.Status())
	}
	waitDone(t, c, 120*time.Second)
	waitDone(t, d, 120*time.Second)
	if c := s.Obs().Counters(); c["serve.rejected.queue"] != 1 {
		t.Fatalf("serve.rejected.queue=%g, want 1", c["serve.rejected.queue"])
	}
	// With two or more completions in the window, the hint is the drain-
	// rate projection. Fill the queue again behind a job that stalls until
	// canceled, and set the completion ring to two jobs 20s apart: one
	// worker then frees a slot for the queued job and the refused one in
	// 2 x 20s.
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	e, err := s.Submit(chipSpec(400, 67))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, e.ID, StateRunning, 30*time.Second)
	f, err := s.Submit(chipSpec(400, 68))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	now := time.Now()
	s.doneTimes = []time.Time{now.Add(-30 * time.Second), now.Add(-10 * time.Second)}
	s.mu.Unlock()
	_, err = s.Submit(chipSpec(400, 69))
	if !errors.As(err, &ae) || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-bound submit: %v, want AdmissionError wrapping ErrQueueFull", err)
	}
	if want := 40 * time.Second; ae.RetryAfter != want {
		t.Fatalf("queue-full RetryAfter %v after two completions 20s apart, want the %v projection", ae.RetryAfter, want)
	}
	if err := s.Cancel(e.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, e, 30*time.Second)
	waitDone(t, f, 120*time.Second)
}

// TestMemoryPressureKeepsServing holds the committed memory near the
// budget with one running job and checks that pressure sheds nothing:
// /svg still answers (pending), /readyz stays ready, and submissions
// below the queue bound are admitted; after the drain every job renders
// and the committed memory is back to zero. Admission and start gating
// are the only overload policy. The big job stalls at its start
// (serve.stall) until it is canceled, so the pressure lasts as long as
// the test needs it.
func TestMemoryPressureKeepsServing(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	long := Spec{Chip: &gen.ChipSpec{NumCells: 2000, Seed: 66}, Knobs: Knobs{MaxLevels: 6}}
	est := estOf(t, long)
	// Budget ~10% above one long job: running it commits ~91% of it.
	s := testSched(t, Options{
		Workers:    1,
		MemBudget:  est.PeakBytes + est.PeakBytes/10,
		QueueLimit: 2,
		governTick: -1,
	})
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(ts.Close)
	a, err := s.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, a.ID, StateRunning, 30*time.Second)
	if gov := s.Stats().Governance; gov.MemCommittedBytes != est.PeakBytes {
		t.Fatalf("committed %d bytes while the long job runs, want its estimate %d", gov.MemCommittedBytes, est.PeakBytes)
	}
	if resp, data := getBody(t, ts.URL+"/jobs/"+a.ID+"/svg"); resp.StatusCode != http.StatusAccepted || decodeEnvelope(t, data).Code != "pending" {
		t.Fatalf("GET /svg under memory pressure: %d %s, want 202 pending", resp.StatusCode, data)
	}
	resp, data := getBody(t, ts.URL+"/readyz")
	var rd Readiness
	if err := json.Unmarshal(data, &rd); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !rd.Ready {
		t.Fatalf("readyz under memory pressure: %d %s, want ready", resp.StatusCode, data)
	}
	// Both submissions fit under the queue bound of 2 and are admitted.
	var queued []Status
	for _, seed := range []int64{67, 68} {
		queued = append(queued, submitHTTP(t, ts.URL, fmt.Sprintf(`{"chip":{"NumCells":300,"Seed":%d}}`, seed)))
	}
	if err := s.Cancel(a.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, a, 30*time.Second)
	for _, st := range queued {
		pollDone(t, ts.URL, st.ID, 120*time.Second)
	}
	if resp, data := getBody(t, ts.URL+"/jobs/"+queued[0].ID+"/svg"); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /svg after the drain: %d %s", resp.StatusCode, data)
	}
	if gov := s.Stats().Governance; gov.MemCommittedBytes != 0 || gov.MemBlocked {
		t.Fatalf("governance stats after drain: %+v", gov)
	}
	if c := s.Obs().Counters(); c["serve.rejected"] != 0 {
		t.Fatalf("counters: rejected=%g, want 0", c["serve.rejected"])
	}
}

// crossCheckGauges asserts the serve.* gauges agree exactly with the
// scheduler's own state, under the same lock every transition updates
// them under.
func crossCheckGauges(t *testing.T, s *Scheduler) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.rec.Gauges()
	checks := []struct {
		name string
		want float64
	}{
		{"serve.queue.depth", float64(s.queue.Len())},
		{"serve.running", float64(len(s.running))},
		{"serve.jobs.known", float64(len(s.jobs))},
		{"serve.mem.committed", float64(s.committed)},
		{"serve.queue.blocked", b2f(s.memBlocked)},
	}
	for _, c := range checks {
		if g[c.name] != c.want {
			t.Fatalf("gauge %s=%g disagrees with scheduler state %g", c.name, g[c.name], c.want)
		}
	}
}

// TestGaugesUnderChurn randomizes submissions and cancellations (seeded,
// reproducible) and cross-checks the gauges against the scheduler state at
// every step: they must agree at every admission, promotion, preemption
// and completion transition, and settle to zero after the drain.
func TestGaugesUnderChurn(t *testing.T) {
	defer leakcheck.Check(t)
	s := testSched(t, Options{Workers: 2, QueueLimit: 8, governTick: 20 * time.Millisecond, NoProgress: -1})
	rng := rand.New(rand.NewSource(1))
	var jobs []*Job
	rejected := 0
	for i := 0; i < 60; i++ {
		switch rng.Intn(10) {
		case 7, 8:
			if len(jobs) > 0 {
				// Canceling terminal jobs is a valid no-op; either way the
				// gauges must stay consistent.
				_ = s.Cancel(jobs[rng.Intn(len(jobs))].ID)
			}
		case 9:
			time.Sleep(2 * time.Millisecond)
		default:
			// Duplicate seeds on purpose: cache hits and coalesced flights
			// churn the gauges differently from fresh placements.
			spec := Spec{
				Chip:     &gen.ChipSpec{NumCells: 300 + 100*rng.Intn(4), Seed: int64(rng.Intn(6))},
				Priority: rng.Intn(3),
			}
			j, err := s.Submit(spec)
			if err != nil {
				var ae *AdmissionError
				if !errors.As(err, &ae) {
					t.Fatalf("submit %d: %v", i, err)
				}
				rejected++
			} else {
				jobs = append(jobs, j)
			}
		}
		crossCheckGauges(t, s)
	}
	t.Logf("churn: %d submitted, %d rejected", len(jobs), rejected)
	for _, j := range jobs {
		waitDone(t, j, 120*time.Second)
	}
	crossCheckGauges(t, s)
	s.mu.Lock()
	depth, running := s.queue.Len(), len(s.running)
	committed := s.committed
	s.mu.Unlock()
	if depth != 0 || running != 0 || committed != 0 {
		t.Fatalf("after drain: depth=%d running=%d committed=%d, want all zero", depth, running, committed)
	}
}

// TestGCTerminalJobsAndOrphans exercises the disk governor directly:
// terminal jobs beyond the retention cap are forgotten (memory and disk),
// and orphaned job directories older than the age guard are removed.
func TestGCTerminalJobsAndOrphans(t *testing.T) {
	defer leakcheck.Check(t)
	s := testSched(t, Options{Workers: 1, GCKeepTerminal: 2, governTick: -1, CacheEntries: -1})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(chipSpec(300, int64(80+i)))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j, 60*time.Second)
		ids = append(ids, j.ID)
	}
	// An orphaned directory (a crashed submit, a manual copy) older than
	// the age guard.
	orphan := filepath.Join(s.StateDir(), "jobs", "zz-orphan")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	s.gcTick()
	if n := len(s.Jobs()); n != 2 {
		t.Fatalf("%d jobs known after GC, want 2", n)
	}
	for _, id := range ids[:2] {
		if _, ok := s.Job(id); ok {
			t.Fatalf("collected job %s still known", id)
		}
		if _, err := os.Stat(filepath.Join(s.StateDir(), "jobs", id)); !os.IsNotExist(err) {
			t.Fatalf("collected job %s still on disk (%v)", id, err)
		}
	}
	for _, id := range ids[2:] {
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("retained job %s was collected", id)
		}
		mustResult(t, j)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan dir survived GC (%v)", err)
	}
	c := s.Obs().Counters()
	if c["serve.gc.jobs"] != 2 || c["serve.gc.orphans"] != 1 {
		t.Fatalf("GC counters: jobs=%g orphans=%g, want 2/1", c["serve.gc.jobs"], c["serve.gc.orphans"])
	}
	crossCheckGauges(t, s)
}

// TestEveryCheckpointWriteFails arms ckpt.write on every hit: a disk that
// refuses every snapshot must cost only the snapshots. The job finishes
// bit-identical to a direct run, records each skipped write as a
// degradation, and leaves no generation or temp file behind.
func TestEveryCheckpointWriteFails(t *testing.T) {
	defer leakcheck.Check(t)
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("ckpt.write", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1, governTick: -1})
	j, err := s.Submit(chipSpec(500, 90))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 60*time.Second)
	if j.State() != StateDone {
		t.Fatalf("state: %s (%s), want done", j.State(), j.Status().Error)
	}
	skipped := 0
	for _, d := range mustResult(t, j).Degradations {
		if d.Stage == "ckpt.write" && d.Fallback == "skipped" {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no ckpt.write -> skipped degradation with every write failing")
	}
	if j.ckptStore().HasSnapshot() {
		t.Fatal("a checkpoint generation exists although every write failed")
	}
	err = filepath.WalkDir(j.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && d.Name() != "job.json" {
			t.Errorf("job dir holds %s after every checkpoint write failed", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := verifyDirect(context.Background(), j); err != nil || !ok {
		t.Fatalf("run without a single snapshot differs from a direct run (ok=%v err=%v)", ok, err)
	}
}

// TestPeakBytesCoversMeasuredHeap places a 1200- and a 5000-cell chip of
// the LoadMix ladder (with LoadMix's inclusive movebound) and samples the
// process heap at every span boundary through the progress hook. The
// admission estimate must cover the largest sample. A sample can only
// under-read the heap's true peak, so the bound is one-sided; at the
// default GOGC that peak stays under twice the live heap, which the model
// covers (see the calibration table in estimate.go). The second case runs
// at GOGC=400, where the heap target is 5x the live heap and the sampled
// 5000-cell heap passes the unscaled GOGC=100 price: the estimate must
// follow the collector's setting.
func TestPeakBytesCoversMeasuredHeap(t *testing.T) {
	for _, gogc := range []int{0, 400} { // 0 keeps the process's setting
		if gogc > 0 {
			defer debug.SetGCPercent(debug.SetGCPercent(gogc))
		}
		g := gcPercent()
		for _, cells := range []int{1200, 5000} {
			spec := gen.LoadMix(3, 1)[2]
			spec.NumCells = cells
			j, err := newJob("peak", 0, Spec{Chip: &spec}, "", g)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var peak uint64
			rec := obs.New(nil)
			rec.SetProgress(func(string) {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mu.Lock()
				peak = max(peak, ms.HeapAlloc)
				mu.Unlock()
			})
			cfg := j.cfg
			cfg.Obs = rec
			cfg.Workers = 1
			runtime.GC()
			if _, err := placer.Place(j.n, cfg); err != nil {
				t.Fatal(err)
			}
			est := j.est.PeakBytes
			t.Logf("GOGC=%d, %d cells: heap peak %d bytes, estimate %d bytes (unscaled %d)",
				g, cells, peak, est, estimateJob(j.n, j.cfg, 100).PeakBytes)
			if uint64(est) < peak {
				t.Errorf("GOGC=%d, %d cells: estimated peak %d bytes < sampled heap %d bytes", g, cells, est, peak)
			}
		}
	}
}
