package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/gen"
	"fbplace/internal/leakcheck"
	"fbplace/internal/obs"
	"fbplace/internal/placer"
)

// defaultReference re-places the spec's instance directly with the default
// configuration and worker count — the trajectory the certify re-run
// repeats — and returns the positions for bit-exact comparison with a
// repaired served result.
func defaultReference(t *testing.T, cells int, seed int64) ([]float64, []float64) {
	t.Helper()
	inst, err := gen.Chip(gen.ChipSpec{NumCells: cells, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := Knobs{}.config(inst.Movebounds)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := placer.Place(inst.N, cfg); err != nil {
		t.Fatal(err)
	}
	return inst.N.X, inst.N.Y
}

func wantBitIdentical(t *testing.T, res *Result, wantX, wantY []float64) {
	t.Helper()
	if len(res.X) != len(wantX) {
		t.Fatalf("position count: got %d, want %d", len(res.X), len(wantX))
	}
	for i := range wantX {
		if math.Float64bits(res.X[i]) != math.Float64bits(wantX[i]) ||
			math.Float64bits(res.Y[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("cell %d: served (%x,%x) != default reference (%x,%x)",
				i, math.Float64bits(res.X[i]), math.Float64bits(res.Y[i]),
				math.Float64bits(wantX[i]), math.Float64bits(wantY[i]))
		}
	}
}

func hasCertifyRepair(res *Result) bool {
	for _, d := range res.Degradations {
		if d.Stage == "certify" && d.Fallback == "safe-mode" {
			return true
		}
	}
	return false
}

// quarantineDir returns the job's quarantine directory path.
func quarantineDir(s *Scheduler, id string) string {
	return filepath.Join(s.StateDir(), "jobs", id, "quarantine")
}

func wantQuarantine(t *testing.T, s *Scheduler, id string) {
	t.Helper()
	dir := quarantineDir(s, id)
	for _, name := range []string{"certify.txt", "positions.hex"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("quarantine %s: %v", name, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("quarantine %s is empty", name)
		}
	}
}

// TestCertifyRepair arms one silent corruption: the first attempt's
// placement is bit-flipped between realization and legalization, the
// placer's internal certificate catches it and re-runs the placement, and
// the service serves a certified result bit-identical to a plain default
// run — with the repair on record and nothing corrupt cached.
func TestCertifyRepair(t *testing.T) {
	const cells, seed = 700, 5
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Cleanup(func() { leakcheck.Check(t) })
			t.Cleanup(faultsim.Reset)
			if err := faultsim.Arm("certify.corrupt", faultsim.Schedule{Limit: 1}); err != nil {
				t.Fatal(err)
			}
			s := testSched(t, Options{Workers: workers, Certify: true})
			j, err := s.Submit(chipSpec(cells, seed))
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j, 120*time.Second)
			if j.State() != StateDone {
				t.Fatalf("state %s (%s)", j.State(), j.Status().Error)
			}
			res := mustResult(t, j)
			if !res.Certified {
				t.Fatal("repaired result is not certified")
			}
			if !j.Status().Certified {
				t.Fatal("Status does not report the certification")
			}
			if !hasCertifyRepair(res) {
				t.Fatalf("no placer-internal certify repair recorded: %v", res.Degradations)
			}
			wantX, wantY := defaultReference(t, cells, seed)
			wantBitIdentical(t, res, wantX, wantY)
			c := s.Obs().Counters()
			if c["certify.fail"] != 1 || c["certify.repair"] != 1 {
				t.Fatalf("counters: fail=%g repair=%g, want 1/1", c["certify.fail"], c["certify.repair"])
			}
			// An identical submission is served from the cache — which only
			// ever held the certified, repaired result.
			j2, err := s.Submit(chipSpec(cells, seed))
			if err != nil {
				t.Fatal(err)
			}
			waitDone(t, j2, 60*time.Second)
			st2 := j2.Status()
			if !st2.Cached || !st2.Certified {
				t.Fatalf("duplicate: cached=%v certified=%v, want both", st2.Cached, st2.Certified)
			}
			wantBitIdentical(t, mustResult(t, j2), wantX, wantY)
		})
	}
}

// TestLevelProgressFollowsThePlan arms one silent corruption, so the
// placer's certificate fails and the whole placement re-runs. The job
// reports its planned level count from admission on, its completed-level
// count never passes the plan although the re-run covers every level
// again, and both end at the result's level count.
func TestLevelProgressFollowsThePlan(t *testing.T) {
	t.Cleanup(func() { leakcheck.Check(t) })
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("certify.corrupt", faultsim.Schedule{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1, Certify: true})
	j, err := s.Submit(chipSpec(3000, 9))
	if err != nil {
		t.Fatal(err)
	}
	levels := 0
	j.follow(context.Background(), func(e obs.Event) bool {
		if e.Type != obs.EventSpan || e.Name != "level" {
			return true
		}
		levels++
		if st := j.Status(); st.LevelsPlanned <= 0 || st.LevelsDone > st.LevelsPlanned {
			t.Errorf("after level span %d: levels_done=%d levels_planned=%d", levels, st.LevelsDone, st.LevelsPlanned)
		}
		return true
	})
	waitDone(t, j, 120*time.Second)
	res := mustResult(t, j)
	if !hasCertifyRepair(res) {
		t.Fatalf("no certify re-run recorded: %v", res.Degradations)
	}
	st := j.Status()
	if st.LevelsDone != st.LevelsPlanned || st.LevelsPlanned != res.Levels {
		t.Fatalf("levels_done=%d levels_planned=%d, result levels %d: want all equal",
			st.LevelsDone, st.LevelsPlanned, res.Levels)
	}
}

// TestCertifyUnrepairable corrupts every attempt: the first run and the
// placer's re-run both fail certification, so the job must fail
// terminally with the result_uncertified code, the offending positions
// quarantined on disk, and nothing cached — a later identical submission
// runs its own placement.
func TestCertifyUnrepairable(t *testing.T) {
	const cells, seed = 600, 7
	t.Cleanup(func() { leakcheck.Check(t) })
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("certify.corrupt", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1, Certify: true})
	j, err := s.Submit(chipSpec(cells, seed))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)
	if j.State() != StateFailed {
		t.Fatalf("state %s, want failed", j.State())
	}
	st := j.Status()
	if st.ErrorCode != "result_uncertified" {
		t.Fatalf("error code %q, want result_uncertified (%s)", st.ErrorCode, st.Error)
	}
	if !strings.Contains(st.Error, "certify:") {
		t.Fatalf("error text %q does not carry the certificate violation", st.Error)
	}
	if st.Certified {
		t.Fatal("a failed job must not report as certified")
	}
	if _, err := j.Result(); err == nil {
		t.Fatal("an uncertified job must not hand out a result")
	}
	wantQuarantine(t, s, j.ID)
	c := s.Obs().Counters()
	if c["certify.uncertified"] != 1 {
		t.Fatalf("certify.uncertified=%g, want 1", c["certify.uncertified"])
	}
	if c["certify.fail"] != 2 || c["certify.repair"] != 1 || c["certify.quarantined"] != 1 {
		t.Fatalf("counters: fail=%g repair=%g quarantined=%g, want 2/1/1",
			c["certify.fail"], c["certify.repair"], c["certify.quarantined"])
	}

	// Nothing corrupt was cached: with the fault disarmed, an identical
	// submission runs its own (clean, certified) placement.
	faultsim.Reset()
	j2, err := s.Submit(chipSpec(cells, seed))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2, 120*time.Second)
	st2 := j2.Status()
	if st2.Cached {
		t.Fatal("an uncertified result reached the cache")
	}
	if j2.State() != StateDone || !st2.Certified {
		t.Fatalf("retry after disarm: state=%s certified=%v", j2.State(), st2.Certified)
	}
}

// TestResultUncertifiedEnvelope checks the HTTP face of an uncertifiable
// job: the result endpoint answers 409 with the result_uncertified code
// and the status carries the code too.
func TestResultUncertifiedEnvelope(t *testing.T) {
	t.Cleanup(faultsim.Reset)
	if err := faultsim.Arm("certify.corrupt", faultsim.Schedule{}); err != nil {
		t.Fatal(err)
	}
	s := testSched(t, Options{Workers: 1, Certify: true})
	sv := NewServer(s)
	j, err := s.Submit(chipSpec(500, 8))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j, 120*time.Second)

	rr := httptest.NewRecorder()
	sv.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/"+j.ID+"/result", nil))
	if rr.Code != http.StatusConflict {
		t.Fatalf("result status %d, want 409", rr.Code)
	}
	var env apiError
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "result_uncertified" {
		t.Fatalf("envelope code %q, want result_uncertified (%s)", env.Code, env.Reason)
	}

	rr = httptest.NewRecorder()
	sv.ServeHTTP(rr, httptest.NewRequest("GET", "/jobs/"+j.ID, nil))
	var st Status
	if err := json.Unmarshal(rr.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ErrorCode != "result_uncertified" {
		t.Fatalf("status error code %q, want result_uncertified", st.ErrorCode)
	}
}

// TestSubmitPayloadTooLarge checks the request-body bound: a POST /jobs
// body past maxSpecBytes is refused with 413 and the payload_too_large
// envelope instead of being buffered into the decoder.
func TestSubmitPayloadTooLarge(t *testing.T) {
	s := testSched(t, Options{Workers: 1})
	sv := NewServer(s)
	body := append([]byte(`{"netlist":"`), bytes.Repeat([]byte{'a'}, maxSpecBytes+1)...)
	rr := httptest.NewRecorder()
	sv.ServeHTTP(rr, httptest.NewRequest("POST", "/jobs", bytes.NewReader(body)))
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rr.Code)
	}
	var env apiError
	if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != "payload_too_large" {
		t.Fatalf("envelope code %q, want payload_too_large", env.Code)
	}
}
