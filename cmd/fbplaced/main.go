// fbplaced is the placement service daemon: it exposes the placer over an
// HTTP/JSON job API with a concurrent scheduler, checkpoint-backed
// preemption and a fingerprint-keyed result cache (see internal/serve).
//
//	fbplaced -addr :8711 -workers 2 -dir /var/lib/fbplaced
//	curl -s localhost:8711/jobs -d '{"chip":{"NumCells":2000,"Seed":7}}'
//	curl -s localhost:8711/jobs/j00000001/result
//
// On SIGINT/SIGTERM the daemon drains: submissions are refused, running
// jobs checkpoint at their next level boundary, and the process exits 0
// once everything is persisted — or non-zero when the -drain deadline
// forces hard cancellation (those jobs resume on the next start).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"fbplace/internal/faultsim"
	"fbplace/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8711", "listen address (port 0 picks a free port)")
	workers := flag.Int("workers", 2, "concurrent placement workers")
	jobWorkers := flag.Int("job-workers", 1, "realization parallelism inside each placement")
	dir := flag.String("dir", "", "state directory for job persistence and checkpoints (empty = temporary)")
	root := flag.String("root", "", "instance root that \"file\" job specs resolve under (empty = file references disabled)")
	cacheN := flag.Int("cache", 64, "result cache entries (negative disables)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget before hard-canceling running jobs")
	portFile := flag.String("portfile", "", "write the bound address to this file once listening")
	selftest := flag.Bool("selftest", false, "run the built-in load test instead of serving, exit 0 on success")
	memBudget := flag.String("mem-budget", "", "process memory budget for admission and start gating, e.g. 512MB or 8GB (empty = 3/4 of available RAM, \"off\" disables)")
	queueLimit := flag.Int("queue-limit", 64, "queued-job bound; submissions past it get 429 + Retry-After (negative = unlimited)")
	watchdog := flag.Duration("watchdog", 2*time.Minute, "stuck-job no-progress deadline (0 disables the watchdog)")
	strikes := flag.Int("watchdog-strikes", 3, "consecutive no-progress attempts before a job fails terminally as stuck")
	gcKeep := flag.Int("gc-keep", 256, "terminal jobs retained before the disk governor collects them (negative = keep all)")
	certifyF := flag.Bool("certify", false, "independently certify every result before it is cached or served; the placer re-runs a failed placement once, and a result still uncertifiable fails as result_uncertified")
	var faults []string
	flag.Func("fault", "arm a fault injection site: name[:after=N,every=N,limit=N,prob=P,seed=N,panic=1] (repeatable)",
		func(s string) error { faults = append(faults, s); return nil })
	flag.Parse()

	for _, spec := range faults {
		if err := faultsim.ArmSpec(spec); err != nil {
			fmt.Fprintln(os.Stderr, "fbplaced:", err)
			return 1
		}
	}

	budgetBytes, err := parseSize(*memBudget)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbplaced: -mem-budget:", err)
		return 1
	}
	noProgress := *watchdog
	if noProgress == 0 {
		noProgress = -1 // flag semantics: 0 disables; Options semantics: negative disables
	}

	opt := serve.Options{
		Workers:        *workers,
		JobWorkers:     *jobWorkers,
		CacheEntries:   *cacheN,
		StateDir:       *dir,
		FileRoot:       *root,
		MemBudget:      budgetBytes,
		QueueLimit:     *queueLimit,
		NoProgress:     noProgress,
		StuckStrikes:   *strikes,
		GCKeepTerminal: *gcKeep,
		Certify:        *certifyF,
	}

	if *selftest {
		return runSelftest(opt)
	}

	sched, err := serve.NewScheduler(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbplaced:", err)
		return 1
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbplaced:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "fbplaced:", err)
			return 1
		}
	}
	fmt.Printf("fbplaced: listening on %s (%d workers, state %s)\n", bound, *workers, sched.StateDir())

	srv := &http.Server{
		Handler: serve.NewServer(sched),
		// Header and idle timeouts close slow-loris and abandoned
		// connections; request bodies are bounded per-handler (the submit
		// endpoint caps its JSON payload), and the streaming endpoints
		// (events, results) legitimately outlive any whole-request timeout.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "fbplaced:", err)
		return 1
	case <-ctx.Done():
	}

	fmt.Printf("fbplaced: draining (budget %v)\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Stop the listener first so no new jobs arrive mid-drain, then drain
	// the scheduler: running jobs checkpoint at their next level boundary
	// and are persisted for the next start.
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "fbplaced: http shutdown:", err)
	}
	if err := sched.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "fbplaced:", err)
		return 2
	}
	fmt.Println("fbplaced: drained cleanly")
	return 0
}

// parseSize parses a human-friendly byte size: a plain integer is bytes,
// with an optional KB/MB/GB suffix (decimal is not supported). "" means
// "use the default" (0) and "off" disables the limit (-1).
func parseSize(s string) (int64, error) {
	switch s {
	case "":
		return 0, nil
	case "off":
		return -1, nil
	}
	mult := int64(1)
	num := s
	for _, suf := range []struct {
		tag string
		m   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}} {
		if len(s) > len(suf.tag) && s[len(s)-len(suf.tag):] == suf.tag {
			mult = suf.m
			num = s[:len(s)-len(suf.tag)]
			break
		}
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q (want e.g. 1073741824, 512MB, 8GB, or off)", s)
	}
	return v * mult, nil
}

// runSelftest exercises the service end to end — mixed-priority load with
// preemption verification — and reports like a health check.
func runSelftest(opt serve.Options) int {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	rep, err := serve.RunLoad(ctx, serve.LoadOptions{
		Jobs: 8, Seed: 1, Duplicates: 4, Verify: true, Sched: opt,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fbplaced: selftest:", err)
		return 1
	}
	fmt.Println("fbplaced: selftest:", rep)
	if rep.Failed > 0 || len(rep.Mismatched) > 0 || len(rep.NonTerminal) > 0 {
		fmt.Fprintln(os.Stderr, "fbplaced: selftest failed: "+
			strconv.Itoa(rep.Failed)+" failed jobs, "+
			strconv.Itoa(len(rep.Mismatched))+" bit-identity mismatches, "+
			strconv.Itoa(len(rep.NonTerminal))+" stuck jobs")
		return 1
	}
	return 0
}
