// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload on a fixed set of instances, reports the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) and certifies every measured
// result. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 14, "failed": 0, "metrics": {"wall_s": {"value": 1.93, "unit": "s"}, ...}}
//
// Run it through perfbench/run.py from the repository root, which builds
// the binary with its caches under .bench_build:
//
//	python3 perfbench/run.py --workload mb-shallow --seed 7 --seconds 20 --trace 0
//
// A run sets up and measures, one after another, a fixed number of
// instances derived from the seed (the first is the seed's own instance):
// as many as take -seconds at the seed commit. Every workload runs in its
// own process, so memory and GC state never leak between workloads. See
// perfbench/README.md for the workloads, the metrics and the layer each
// per-layer metric attributes time to.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fbplace/internal/obs"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line printed last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance pins a record to the host and build it was measured on.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	LoadAvg1   float64 `json:"loadavg_1m"`
	// StealFrac is the share of the host's CPU time the hypervisor took
	// during the run (from /proc/stat; 0 where unavailable).
	StealFrac float64 `json:"steal_frac"`
	// CPUSeconds is the process's user and system CPU time.
	CPUSeconds float64 `json:"cpu_s"`
	// Planned is the run's instance count; Runs counts the instances
	// measured, fewer only when the deadline or a failure cut the run.
	Planned int `json:"planned"`
	Runs    int `json:"runs"`
	// ElapsedS is the run's whole time: set-ups, iterations and checks.
	ElapsedS float64 `json:"elapsed_s"`
}

// instanceStride separates the generator seeds of one run's instances:
// instance j of seed s is generated from s + j*instanceStride, so instance
// 0 is the seed's own chip and runs with nearby seeds share no instance.
const instanceStride = 1_000_003

func instanceSeed(seed int64, j int) int64 { return seed + int64(j)*instanceStride }

// deadlineFactor bounds a run on a slow host: no instance starts after
// deadlineFactor times -seconds.
const deadlineFactor = 1.5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 7, "instance generator seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 20, "run length in seconds at the seed commit's speed; sets the instance count")
	traceFlag := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end metrics")
	outDir := fs.String("out", "", "directory for the run record and trace (default: nothing is kept)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	traced := *traceFlag == 1
	count := w.instanceCount(*seconds)
	if traced {
		// A traced run measures each instance twice, untraced and traced.
		count = (count + 1) / 2
	}
	prov := provenance{
		Workload: *name, Seed: *seed, Trace: traced, Seconds: *seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Source: sourceDigest("."),
		LoadAvg1: loadAvg(), Planned: count,
	}
	// Serve state and any other scratch files live in a temporary
	// directory that is removed on exit; only -out keeps anything.
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	budget := time.Duration(*seconds * float64(time.Second))
	deadline := time.Duration(deadlineFactor * float64(budget))
	// A hard deadline keeps a wedged run from outliving its time slot.
	ctx, cancel := context.WithTimeout(context.Background(), deadline+90*time.Second)
	defer cancel()

	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %d instances (%gs), trace %v\n", *name, *seed, count, *seconds, traced)
	if *name == "serve-mix" {
		specs, dropped := serveJobs(*seed)
		fmt.Fprintf(stdout, "note  gen.LoadMix movebounds dropped from %d of %d jobs per drain (README.md: known failure)\n", dropped, len(specs))
	}
	var setups []float64
	var samples, tracedSamples []*sample
	var lastTrace []obs.Event
	steal0, total0 := cpuTicks()
	start := time.Now()
	for j := 0; j < count; j++ {
		if elapsed := time.Since(start); j > 0 && elapsed > deadline {
			fmt.Fprintf(stdout, "deadline: %d of %d instances measured in %.1fs\n", j, count, elapsed.Seconds())
			break
		}
		iseed := instanceSeed(*seed, j)
		s, setupS, err := measure(ctx, w.setup, iseed, tmp, false)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s instance %d set-up: %v\n", *name, iseed, err)
			return 1
		}
		setups = append(setups, setupS)
		samples = append(samples, s)
		if traced {
			// The traced run measures each instance untraced and then
			// traced, so the tracing overhead compares like with like.
			ts, _, err := measure(ctx, w.setup, iseed, tmp, true)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s instance %d set-up: %v\n", *name, iseed, err)
				return 1
			}
			tracedSamples = append(tracedSamples, ts)
			lastTrace = ts.events
			if ts.failed > 0 {
				break
			}
		}
		if s.failed > 0 || ctx.Err() != nil {
			break
		}
	}
	prov.Runs = len(samples)
	prov.ElapsedS = time.Since(start).Seconds()
	steal1, total1 := cpuTicks()
	prov.StealFrac = ratio(steal1-steal0, total1-total0)
	prov.CPUSeconds = cpuSeconds()

	var res result
	var walls, hpwls, jobs []float64
	violations, overlaps := 0, 0
	for _, s := range append(append([]*sample(nil), samples...), tracedSamples...) {
		res.Attempted += s.attempted
		res.Failed += s.failed
		violations = max(violations, s.violations)
		overlaps = max(overlaps, s.overlaps)
		for _, p := range s.problems {
			fmt.Fprintf(stdout, "check failed: %s\n", p)
		}
	}
	for _, s := range samples {
		walls = append(walls, s.wall)
		hpwls = append(hpwls, s.hpwl)
		jobs = append(jobs, s.jobs...)
	}
	res.Correct = res.Failed == 0 && violations == 0 && overlaps <= 0 && res.Attempted > 0

	provJSON, err := json.Marshal(prov)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "provenance %s\n", provJSON)

	e2e := endToEnd(walls, setups, hpwls)
	printMetrics(stdout, "metric", e2e, map[string][]float64{"wall_s": walls, "setup_s": setups})
	shown := maps.Clone(e2e)
	if len(jobs) > 0 {
		jm := jobMetrics(jobs, walls)
		printMetrics(stdout, "metric", jm, map[string][]float64{"job_p50_s": jobs})
		maps.Copy(shown, jm)
	}
	// The correctness figures stay out of the JSON line (they are 0 on a
	// correct run, which no bound can compare as a ratio) but are
	// printed, and any nonzero value makes the run incorrect.
	fmt.Fprintf(stdout, "check %-24s %14d count\n", "violations", violations)
	if overlaps < 0 {
		fmt.Fprintf(stdout, "check %-24s %14s count (not legalized)\n", "overlaps", "n/a")
	} else {
		fmt.Fprintf(stdout, "check %-24s %14d count\n", "overlaps", overlaps)
	}
	fmt.Fprintf(stdout, "check %-24s %14.4f fraction (%d of %d)\n", "failed_frac",
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	res.Metrics = e2e
	var spans []spanRow
	if traced {
		layers := layerMetrics(tracedSamples)
		var untracedWalls, tracedWalls float64
		for i, s := range tracedSamples {
			untracedWalls += samples[i].wall
			tracedWalls += s.wall
		}
		layers["trace.overhead_frac"] = metric{ratio(tracedWalls, untracedWalls) - 1, "fraction"}
		printMetrics(stdout, "layer", layers, nil)
		var all []*spanTimes
		for _, s := range tracedSamples {
			if s.spans != nil { // nil when the iteration failed early
				all = append(all, s.spans)
			}
		}
		spans = spanTable(all)
		for _, r := range spans {
			fmt.Fprintf(stdout, "span  %-24s total %10.6f s  self %10.6f s  max %10.6f s\n", r.Name, r.Total, r.Self, r.Max)
		}
		res.Metrics = perLayerReported(layers)
	}

	if *outDir != "" {
		if err := writeRecord(*outDir, prov, res, shown, spans, samples, tracedSamples, lastTrace); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// endToEnd computes the end-to-end metrics of the JSON line from a run's
// untraced iterations. Times and HPWL are means over the run's instances:
// the instances differ, and their mean is what a run of many placements
// costs. setup_s is the median of the instances' set-up times.
func endToEnd(walls, setups, hpwls []float64) map[string]metric {
	return map[string]metric{
		"wall_s":      {mean(walls), "s"},
		"setup_s":     {median(setups), "s"},
		"hpwl":        {mean(hpwls), "um"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// jobMetrics are the client-side figures of a workload whose iteration
// serves many jobs (serve-mix): submit-to-result latency and throughput.
// They are printed and kept by -out but not in the JSON line, which holds
// every workload to the same metrics. A drain serves a fixed job set, so
// its throughput is the job count over wall_s, which the JSON line has.
func jobMetrics(jobs, walls []float64) map[string]metric {
	return map[string]metric{
		"job_p50_s":  {median(jobs), "s"},
		"job_p90_s":  {percentile(jobs, 90), "s"},
		"jobs_per_s": {ratio(float64(len(jobs)), sum(walls)), "1/s"},
	}
}

// measure sets up instance iseed, runs one iteration on it and releases it.
// It returns the sample and the set-up time in seconds.
func measure(ctx context.Context, setup setupFunc, iseed int64, tmp string, traced bool) (*sample, float64, error) {
	runtime.GC()
	t0 := time.Now()
	b, err := setup(ctx, iseed, tmp)
	setupS := time.Since(t0).Seconds()
	if err != nil {
		return nil, 0, err
	}
	defer b.close()
	runtime.GC()
	return b.iterate(ctx, traced), setupS, nil
}

// printMetrics prints one line per metric, sorted by name; dist adds the
// quartiles and sample count of the values behind a metric.
func printMetrics(w io.Writer, tag string, m map[string]metric, dist map[string][]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		extra := ""
		if xs := dist[k]; len(xs) > 0 {
			q1, q2, q3 := quartiles(xs)
			extra = fmt.Sprintf("  (n %d; q1 %.4g, median %.4g, q3 %.4g)", len(xs), q1, q2, q3)
		}
		fmt.Fprintf(w, "%s %-24s %14.6g %s%s\n", tag, k, m[k].Value, m[k].Unit, extra)
	}
}

// layerMetrics reduces the traced iterations' layer values to their means
// over the run's instances. Every layer metric is computed on every
// workload; a layer a workload does not exercise reads 0.
func layerMetrics(traced []*sample) map[string]metric {
	out := map[string]metric{}
	for _, l := range layerUnits {
		var vs []float64
		for _, s := range traced {
			vs = append(vs, s.layers[l.name])
		}
		out[l.name] = metric{mean(vs), l.unit}
	}
	return out
}

// perLayerReported picks the layer metrics of the JSON line: those every
// workload exercises (layerUnits marks them), so no reported figure is a
// structural zero. All layers are printed above it and kept by -out.
func perLayerReported(m map[string]metric) map[string]metric {
	out := map[string]metric{}
	for _, l := range layerUnits {
		if l.reported {
			out[l.name] = m[l.name]
		}
	}
	return out
}

// writeRecord stores the run's full record (provenance, every sample's
// figures, both metric sets, the span table) and, for traced runs, the
// last traced iteration's events as a JSON-lines trace.
func writeRecord(dir string, prov provenance, res result, e2e map[string]metric, spans []spanRow, samples, tracedSamples []*sample, events []obs.Event) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	type iter struct {
		WallS   float64            `json:"wall_s"`
		HPWL    float64            `json:"hpwl"`
		JobsS   []float64          `json:"jobs_s,omitempty"`
		Traced  bool               `json:"traced"`
		Layers  map[string]float64 `json:"layers,omitempty"`
		Problem []string           `json:"problems,omitempty"`
	}
	rec := struct {
		Provenance provenance        `json:"provenance"`
		Result     result            `json:"result"`
		EndToEnd   map[string]metric `json:"end_to_end"`
		Spans      []spanRow         `json:"spans,omitempty"`
		Iterations []iter            `json:"iterations"`
	}{Provenance: prov, Result: res, EndToEnd: e2e, Spans: spans}
	for _, s := range samples {
		rec.Iterations = append(rec.Iterations, iter{s.wall, s.hpwl, s.jobs, false, nil, s.problems})
	}
	for _, s := range tracedSamples {
		rec.Iterations = append(rec.Iterations, iter{s.wall, s.hpwl, s.jobs, true, s.layers, s.problems})
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", prov.Workload, prov.Seed, map[bool]int{false: 0, true: 1}[prov.Trace])
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	if events == nil {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.jsonl"))
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	sink := obs.NewJSONSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := sink.Err(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one (not in a plain source checkout; sourceDigest identifies
// the code there).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// sourceDigest is the SHA-256 over the paths and contents of the Go
// sources and module files under root (hidden directories skipped), so two
// records name the same code exactly when their digests agree.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// loadAvg is the host's one-minute load average at start (0 where
// /proc/loadavg is unavailable).
func loadAvg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return 0
	}
	return v
}

// cpuTicks returns the host's steal and total CPU ticks from the first
// line of /proc/stat (zeros where unavailable).
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user..steal; guest time is already in user
			total += x
		}
		if i == 7 {
			steal = x
		}
	}
	return steal, total
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, falling back
// to the Go runtime's total reserved memory where /proc is unavailable.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
