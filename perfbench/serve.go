package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fbplace/internal/certify"
	"fbplace/internal/gen"
	"fbplace/internal/obs"
	"fbplace/internal/region"
	"fbplace/internal/serve"
)

// serveClients is the number of closed-loop clients, each holding at most
// one connection: submit, wait on the event stream, fetch the result, then
// submit the next job.
const serveClients = 2

// serveJob is one job of the batch: its wire body and, for the
// independent check of the served result, its instance.
type serveJob struct {
	body []byte
	inst *gen.Instance
	mbs  []region.Movebound
}

// serveBench drains one batch of jobs through fbplaced's HTTP API, on a
// scheduler of its own: the drain starts from an empty cache, so the
// batch's verbatim repeats hit the cache or coalesce the same way every
// time.
type serveBench struct {
	jobs   []serveJob
	srv    *daemon
	client *http.Client
}

// daemon is one scheduler behind serve.NewServer on a loopback listener.
type daemon struct {
	sched *serve.Scheduler
	hs    *http.Server
	base  string
	dir   string
	done  chan struct{}
}

func setupServeMix(ctx context.Context, seed int64, tmp string) (bench, error) {
	b := &serveBench{client: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients},
	}}
	specs, _ := serveJobs(seed)
	for i, spec := range specs {
		body, err := json.Marshal(serve.Spec{Chip: &spec})
		if err != nil {
			return nil, fmt.Errorf("encode job %d: %w", i, err)
		}
		inst, err := gen.Chip(spec)
		if err != nil {
			return nil, fmt.Errorf("generate job %d: %w", i, err)
		}
		mbs, err := region.Normalize(inst.N.Area, inst.Movebounds)
		if err != nil {
			return nil, fmt.Errorf("normalize job %d: %w", i, err)
		}
		b.jobs = append(b.jobs, serveJob{body: body, inst: inst, mbs: mbs})
	}
	if err := b.start(ctx, tmp); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// serveJobs is a serve-mix batch: the serveUnique specs of gen.LoadMix,
// each spec i with i%serveDuplicates == 0 submitted a second time right
// after it, as serve.RunLoad's Duplicates option does. The copy finds the
// original still placing under the other client (coalesced) or done
// (cache hit).
//
// LoadMix gives every third spec an inclusive movebound; serveJobs drops
// them and returns how many jobs lost one. At the seed commit some of those
// chips fail in realization (README.md names one), and a benchmark workload
// must not fail; mb-shallow measures movebounded placement instead.
func serveJobs(seed int64) (jobs []gen.ChipSpec, dropped int) {
	for i, spec := range gen.LoadMix(serveUnique, seed) {
		copies := 1
		if i%serveDuplicates == 0 {
			copies = 2
		}
		if len(spec.Movebounds) > 0 {
			spec.Movebounds = nil
			dropped += copies
		}
		for ; copies > 0; copies-- {
			jobs = append(jobs, spec)
		}
	}
	return jobs, dropped
}

// start brings up a daemon with its own state directory under tmp and
// waits until it answers its health probe.
func (b *serveBench) start(ctx context.Context, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return fmt.Errorf("state dir: %w", err)
	}
	sched, err := serve.NewScheduler(serve.Options{Workers: 2, JobWorkers: 1, Certify: true, StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return fmt.Errorf("scheduler: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sched.Shutdown(ctx)
		os.RemoveAll(dir)
		return fmt.Errorf("listen: %w", err)
	}
	d := &daemon{sched: sched, hs: &http.Server{Handler: serve.NewServer(sched)},
		base: "http://" + ln.Addr().String(), dir: dir, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		_ = d.hs.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	b.srv = d
	resp, err := b.do(ctx, http.MethodGet, d.base+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

// close shuts the daemon down and removes its state.
func (b *serveBench) close() {
	d := b.srv
	if d == nil {
		return
	}
	b.srv = nil
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout only leaves idle connections behind
	<-d.done
	_ = d.sched.Shutdown(ctx)
	b.client.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

func (b *serveBench) do(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return b.client.Do(req)
}

// served is the wire form of a finished placement (GET /jobs/{id}/result).
type served struct {
	HPWL       float64   `json:"hpwl"`
	Violations int       `json:"violations"`
	Overlaps   int       `json:"overlaps"`
	Certified  bool      `json:"certified"`
	X          []float64 `json:"x"`
	Y          []float64 `json:"y"`
}

// outcome is one job as its client saw it.
type outcome struct {
	latency, submit, fetch float64
	res                    *served
	events                 []obs.Event
	err                    error
}

func (b *serveBench) iterate(ctx context.Context, traced bool) *sample {
	s := &sample{}
	out := make([]outcome, len(b.jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(b.jobs) {
					return
				}
				out[i] = b.runJob(ctx, b.jobs[i].body, traced)
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(t0).Seconds()

	// Everything below is outside the timed window: service counters, then
	// an independent certificate of every served placement.
	var stats serve.Stats
	if err := b.getJSON(ctx, "/stats", &stats); err != nil {
		s.fail("stats: %v", err)
	}
	if p := stats.Counters["serve.preemptions"]; p > 0 {
		s.fail("%g preemptions with every job at one priority", p)
	}
	var submits, fetches []float64
	st := newSpanTimes()
	counters := map[string]float64{}
	for i, o := range out {
		s.attempted++
		if o.err != nil {
			s.fail("job %d: %v", i, o.err)
			continue
		}
		s.jobs = append(s.jobs, o.latency)
		submits = append(submits, o.submit)
		fetches = append(fetches, o.fetch)
		s.hpwl += o.res.HPWL
		s.violations += o.res.Violations
		s.overlaps += o.res.Overlaps
		if err := b.check(ctx, i, o.res); err != nil {
			s.fail("job %d: %v", i, err)
		}
		if traced {
			st.add(o.events)
			for k, v := range counterTotals(o.events) {
				counters[k] += v
			}
			s.events = append(s.events, o.events...)
		}
	}
	if traced {
		l := map[string]float64{}
		spanLayers(l, st, counters)
		s.spans = st
		c := stats.Counters
		l["serve.submit_s"] = median(submits)
		l["serve.result_s"] = median(fetches)
		l["serve.cache_hit_ratio"] = ratio(c["serve.cache.hits"], c["serve.cache.hits"]+c["serve.cache.misses"])
		l["serve.coalesced"] = c["serve.coalesced"]
		l["serve.rejected"] = c["serve.rejected"]
		l["serve.preemptions"] = c["serve.preemptions"]
		l["certify.fail"] = c["certify.fail"]
		l["certify.repair"] = c["certify.repair"]
		s.layers = l
	}
	return s
}

// check certifies a served placement independently of the daemon: the
// positions go onto a freshly generated copy of the job's instance and
// through certify's placement certificate against the served figures.
func (b *serveBench) check(ctx context.Context, i int, res *served) error {
	j := b.jobs[i]
	if !res.Certified {
		return errors.New("result not certified")
	}
	if res.Violations != 0 || res.Overlaps != 0 {
		return fmt.Errorf("%d violations, %d overlaps", res.Violations, res.Overlaps)
	}
	n := j.inst.N.Clone()
	if len(res.X) != len(n.X) || len(res.Y) != len(n.Y) {
		return fmt.Errorf("result has %d positions for %d cells", len(res.X), len(n.X))
	}
	copy(n.X, res.X)
	copy(n.Y, res.Y)
	chk := &certify.Checker{Ctx: ctx, Level: -1}
	return chk.Placement(n, j.mbs, certify.Reported{
		HPWL: res.HPWL, Violations: res.Violations, Overlaps: res.Overlaps,
		Legalized: true, TargetDensity: 0.97,
	})
}

// runJob is one closed-loop round trip: POST /jobs, follow the job's
// JSON-lines event stream until it ends (the server closes it when the job
// is terminal), then GET the result.
func (b *serveBench) runJob(ctx context.Context, body []byte, traced bool) outcome {
	var o outcome
	t0 := time.Now()
	base := b.srv.base
	resp, err := b.do(ctx, http.MethodPost, base+"/jobs", body)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	o.submit = time.Since(t0).Seconds()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		o.err = fmt.Errorf("submit: %s (%v)", resp.Status, err)
		return o
	}
	if o.events, err = b.follow(ctx, base+"/jobs/"+st.ID+"/events?format=jsonl", traced); err != nil {
		o.err = err
		return o
	}
	t1 := time.Now()
	resp, err = b.do(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/result", nil)
	if err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return o
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best effort: only decorates the error
		o.err = fmt.Errorf("result: %s %s", resp.Status, bytes.TrimSpace(msg))
		return o
	}
	o.res = &served{}
	if err := json.NewDecoder(resp.Body).Decode(o.res); err != nil {
		o.err = fmt.Errorf("result: %w", err)
		return o
	}
	o.fetch = time.Since(t1).Seconds()
	o.latency = time.Since(t0).Seconds()
	return o
}

// follow reads a job's event stream to its end, decoding the events only
// when traced (untraced clients just drain it).
func (b *serveBench) follow(ctx context.Context, url string, traced bool) ([]obs.Event, error) {
	resp, err := b.do(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %s", resp.Status)
	}
	if !traced {
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		return nil, nil
	}
	var events []obs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return events, nil
}

func (b *serveBench) getJSON(ctx context.Context, path string, v any) error {
	resp, err := b.do(ctx, http.MethodGet, b.srv.base+path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
