package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fbplace/internal/chipio"
	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/obs"
)

// stallGate submits a job that wedges the single worker at its attempt
// start until it is canceled (serve.stall, no watchdog), so the jobs
// submitted after it stay queued.
func stallGate(t *testing.T, s *Scheduler, seed int64) *Job {
	t.Helper()
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("serve.stall", faultsim.Schedule{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	gate, err := s.Submit(chipSpec(200, seed))
	if err != nil {
		t.Fatal(err)
	}
	for gate.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	return gate
}

// terminalEvents counts the terminal "state" events in a finished job's
// progress stream.
func terminalEvents(j *Job) int {
	n := 0
	j.follow(context.Background(), func(e obs.Event) bool {
		if e.Type == "state" && State(e.Name).Terminal() {
			n++
		}
		return true
	})
	return n
}

// TestFinishIsFinal drives a second terminal transition through finish,
// the entry point the follower loop and the cache-hit path use, on a job
// canceled while queued (the cancel-then-done order that used to close
// the done channel twice) and on a job that ran to done. Nothing about
// either job, its job.json or the serve counters may change.
func TestFinishIsFinal(t *testing.T) {
	s := testSched(t, Options{Workers: 1, governTick: -1})
	gate := stallGate(t, s, 81)
	q, err := s.Submit(chipSpec(300, 82))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(q.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(gate.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, gate, 60*time.Second)
	d, err := s.Submit(chipSpec(300, 83))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, 60*time.Second)
	res := mustResult(t, d)

	type snapshot struct {
		st   Status
		res  *Result
		file []byte
	}
	take := func(j *Job) snapshot {
		file, err := os.ReadFile(filepath.Join(j.dir, "job.json"))
		if err != nil {
			t.Fatal(err)
		}
		st := j.Status()
		j.mu.Lock()
		defer j.mu.Unlock()
		return snapshot{st, j.result, file}
	}
	counters := s.Obs().Counters()
	jobs := []*Job{q, d}
	before := []snapshot{take(q), take(d)}
	for _, j := range jobs {
		s.finish(j, StateDone, res, "")
		s.finish(j, StateFailed, nil, "late failure")
		s.finish(j, StateCanceled, nil, "late cancel")
	}
	for i, j := range jobs {
		after := take(j)
		if after.st != before[i].st || after.res != before[i].res || !bytes.Equal(after.file, before[i].file) {
			t.Errorf("job %s changed by a late finish:\n before %+v %s\n after  %+v %s",
				j.ID, before[i].st, before[i].file, after.st, after.file)
		}
		if n := terminalEvents(j); n != 1 {
			t.Errorf("job %s emitted %d terminal state events, want 1", j.ID, n)
		}
	}
	if q.State() != StateCanceled || d.State() != StateDone {
		t.Fatalf("states %s/%s, want canceled/done", q.State(), d.State())
	}
	if got := s.Obs().Counters(); !maps.Equal(got, counters) {
		t.Fatalf("counters changed by a late finish:\n before %v\n after  %v", counters, got)
	}
}

// TestCanceledFollowersFinishOnce cancels 32 coalesced followers, each
// from its own goroutine, the moment their leader's done channel closes:
// the cancellations race the leader's finish of its followers. Every
// follower must end exactly once, and every submitted job must be counted
// exactly once as done or canceled.
func TestCanceledFollowersFinishOnce(t *testing.T) {
	const rounds, followers = 5, 32
	s := testSched(t, Options{Workers: 1, governTick: -1})
	submitted, canceled := 0, 0
	for r := 0; r < rounds; r++ {
		gate := stallGate(t, s, int64(900+r))
		lead, err := s.Submit(chipSpec(300, int64(1000+r)))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		fs := make([]*Job, followers)
		for i := range fs {
			if fs[i], err = s.Submit(chipSpec(300, int64(1000+r))); err != nil {
				t.Fatal(err)
			}
			if !fs[i].Status().Coalesced {
				t.Fatalf("round %d: follower %s did not coalesce", r, fs[i].ID)
			}
			wg.Add(1)
			go func(f *Job) {
				defer wg.Done()
				<-lead.Done()
				if err := s.Cancel(f.ID); err != nil {
					t.Error(err)
				}
			}(fs[i])
		}
		submitted += 2 + followers
		if err := s.Cancel(gate.ID); err != nil {
			t.Fatal(err)
		}
		waitDone(t, lead, 60*time.Second)
		wg.Wait()
		for _, f := range fs {
			waitDone(t, f, 10*time.Second)
			if st := f.State(); st != StateDone && st != StateCanceled {
				t.Fatalf("follower %s ended %s", f.ID, st)
			}
			if n := terminalEvents(f); n != 1 {
				t.Fatalf("follower %s emitted %d terminal state events, want 1", f.ID, n)
			}
			if f.State() == StateCanceled {
				canceled++
			}
		}
	}
	t.Logf("%d of %d followers canceled before their leader finished them", canceled, rounds*followers)
	c := s.Obs().Counters()
	if got := c["serve.done"] + c["serve.canceled"]; got != float64(submitted) || c["serve.submitted"] != float64(submitted) {
		t.Fatalf("serve.done %g + serve.canceled %g = %g, serve.submitted %g; want both %d",
			c["serve.done"], c["serve.canceled"], got, c["serve.submitted"], submitted)
	}
}

// TestFailedRecoveryIsPersisted restarts a scheduler over a queued job
// whose instance file is gone: the job fails once, and that failure is
// written to job.json, so restoring the file and restarting again neither
// runs the job nor counts a second serve.failed.
func TestFailedRecoveryIsPersisted(t *testing.T) {
	dir, root := t.TempDir(), t.TempDir()
	const id = "j00000007"
	jdir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(jobFile{ID: id, Seq: 7, State: StateQueued, Spec: Spec{File: "inst.fbp"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jdir, "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1, StateDir: dir, FileRoot: root, governTick: -1}
	restart := func() (*Scheduler, *Job) {
		t.Helper()
		s, err := NewScheduler(opt)
		if err != nil {
			t.Fatal(err)
		}
		j, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		return s, j
	}

	s1, j1 := restart()
	if st := j1.Status(); st.State != StateFailed || s1.Obs().Counter("serve.failed") != 1 {
		t.Fatalf("first restart: state %s (%q), serve.failed %g; want failed, 1",
			st.State, st.Error, s1.Obs().Counter("serve.failed"))
	}
	if j1.dir != jdir {
		t.Errorf("failed tombstone dir %q, want %q (the GC collects it)", j1.dir, jdir)
	}
	var jf jobFile
	if data, err := os.ReadFile(filepath.Join(jdir, "job.json")); err != nil || json.Unmarshal(data, &jf) != nil || jf.State != StateFailed {
		t.Errorf("job.json after the failed recovery: state %q (%v), want failed", jf.State, err)
	}

	inst, err := gen.Chip(gen.ChipSpec{NumCells: 200, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := chipio.Write(&buf, inst.N, inst.Movebounds); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "inst.fbp"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, j2 := restart()
	if st := j2.Status(); st.State != StateFailed || st.Error != j1.Status().Error {
		t.Fatalf("second restart: state %s (%q), want failed (%q)", st.State, st.Error, j1.Status().Error)
	}
	if got := s2.Obs().Counter("serve.failed"); got != 0 {
		t.Fatalf("second restart counted serve.failed %g, want 0", got)
	}
}

// TestAdmissionPricesChipBeforeGenerating submits a chip spec far too
// large to generate: admission must refuse it over budget from the spec
// alone. The floor it prices must never exceed the estimate of the
// generated instance, so it refuses nothing the full check would admit.
func TestAdmissionPricesChipBeforeGenerating(t *testing.T) {
	s := testSched(t, Options{Workers: 1, MemBudget: 1 << 30, governTick: -1})
	_, err := s.Submit(Spec{Chip: &gen.ChipSpec{NumCells: 1 << 55, Seed: 1}})
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Code() != "over_budget" || ae.Status != 503 {
		t.Fatalf("huge chip: %v, want a 503 over_budget AdmissionError", err)
	}
	if got := s.Obs().Counter("serve.rejected.overbudget"); got != 1 {
		t.Fatalf("serve.rejected.overbudget=%g, want 1", got)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs registered after the refusal", n)
	}
	for _, gogc := range []int{100, 400} {
		for _, cs := range []gen.ChipSpec{
			{NumCells: 300, Seed: 2},
			{NumCells: 500, NumMacros: 4, PadCount: 60, Seed: 3},
			{NumCells: 800, PadCount: 7, Seed: 4, Movebounds: []gen.MoveboundSpec{{CellFraction: 0.2, NestedIn: -1}}},
		} {
			inst, err := gen.Chip(cs)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := Knobs{}.config(inst.Movebounds)
			if err != nil {
				t.Fatal(err)
			}
			floor, est := chipFloor(&cs, gogc), estimateJob(inst.N, cfg, gogc)
			if floor.PeakBytes > est.PeakBytes {
				t.Errorf("GOGC=%d, %d cells: floor %d bytes > estimate %d bytes", gogc, cs.NumCells, floor.PeakBytes, est.PeakBytes)
			}
		}
	}
}

// TestPersistKeepsLatestState cancels every job the moment it becomes
// visible, so Submit's persist of the queued job races finish's persist
// of the canceled one. Both write the same job.json: it must end readable
// and canceled for every job, or a restart would rerun a canceled job.
func TestPersistKeepsLatestState(t *testing.T) {
	const jobs = 500
	s := testSched(t, Options{Workers: 1, governTick: -1, QueueLimit: -1})
	gate := stallGate(t, s, 91)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		seen := map[string]bool{gate.ID: true}
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.Jobs() {
				if !seen[j.ID] {
					seen[j.ID] = true
					_ = s.Cancel(j.ID)
				}
			}
		}
	}()
	tiny := "FBPLACE v1\nAREA 0 0 10 10 ROWHEIGHT 1\nCELL a 1 1 1 1\nCELL b 1 1 2 2\nNET n 1 2 PIN 0 0 0 PIN 1 0 0\n"
	var all []*Job
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(Spec{Netlist: tiny, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, j)
	}
	for _, j := range all {
		waitDone(t, j, 10*time.Second)
	}
	close(stop)
	wg.Wait()
	for _, j := range all {
		var jf jobFile
		data, err := os.ReadFile(filepath.Join(j.dir, "job.json"))
		if err == nil {
			err = json.Unmarshal(data, &jf)
		}
		if err != nil || jf.State != StateCanceled {
			t.Errorf("%s ended %s, job.json state %q (%v)", j.ID, j.State(), jf.State, err)
		}
	}
	if err := s.Cancel(gate.ID); err != nil {
		t.Fatal(err)
	}
}
