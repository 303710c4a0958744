#!/bin/sh
# Local CI: formatting, vet, the repo's own static-analysis suite
# (cmd/fbpvet), build, and the test suite. By default the tests run under
# the race detector (slow but the real gate); pass -quick to run them
# without -race for fast tier-1 iteration. Referenced from README
# "Install & quick start".
set -e

cd "$(dirname "$0")"

quick=0
for arg in "$@"; do
	case "$arg" in
	-quick) quick=1 ;;
	*)
		echo "usage: ./ci.sh [-quick]" >&2
		exit 2
		;;
	esac
done

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== fbpvet =="
# Repo-specific invariants: map-order determinism in solver packages,
# no float equality in numeric kernels, obs spans always ended, no
# dropped errors, no global/time-seeded RNG, plus the concurrency family
# (mutexguard, ctxrelease, goroleak, atomicmix, walltime). Any finding
# without an //fbpvet:allow (or per-analyzer) suppression fails CI here.
# See README "Static analysis".
go run ./cmd/fbpvet ./...

echo "== go build =="
go build ./...

echo "== perfbench checks =="
# perfbench is a separate module (it pins the benchmark's own source), so
# the root ./... patterns never reach it: vet it and run its tests, which
# include the BENCHMARK.json consistency check. See perfbench/README.md.
(cd perfbench && go vet ./... && go test ./...)

echo "== local-QP allocation guard =="
# Regression guard for the O(netlist) scan: a small-block SolveSubset over
# a 10k-cell netlist must allocate O(block). See README "Performance".
go test -timeout 5m -run 'TestSolveSubsetAllocsOBlock' ./internal/qp/

echo "== benchmark smoke =="
# One iteration each of the realization-path microbenchmarks (local QP,
# realization level, transportation engines), so a change that breaks or
# pathologically slows them fails CI fast.
go test -timeout 10m -run '^$' -bench 'BenchmarkSolveSubsetBlock|BenchmarkRealizeLevel' -benchtime 1x ./internal/qp/ ./internal/fbp/
go test -timeout 10m -run '^$' -bench 'BenchmarkEngines|BenchmarkCondensedLarge' -benchtime 1x ./internal/transport/

echo "== bench regression gate =="
# The committed Table-I baseline must not regress more than 10% wall
# clock against the PR 4 reference. A regenerated BENCH file with a
# slower transport or realization path fails here. fbpbench writes no
# baseline unless -bench-out names one; regenerate with
#   go run ./cmd/fbpbench -table 1 -bench-out BENCH_pr9.json
# on an otherwise idle machine before committing. See README
# "Performance" and cmd/benchgate.
go run ./cmd/benchgate -base BENCH_pr4.json -new BENCH_pr9.json -table 1 -max-regress 0.10

echo "== fault injection suite =="
# Robustness gate: arm every faultsim injection point and prove the
# pipeline degrades or fails structurally (no panics, no goroutine
# leaks, 1-vs-4-worker determinism preserved). See README "Robustness
# & fault injection".
go test -timeout 10m -run 'TestInjection|TestDeadline|TestLeak' ./internal/faultsim/

echo "== kill-and-resume e2e =="
# Crash-safety gate: a run killed mid-loop by an injected panic must,
# after resume from its checkpoints, produce bit-identical positions to
# an uninterrupted run. See README "Checkpoint & resume".
ckdir=$(mktemp -d ./ci-ckpt.XXXXXX)
trap 'rm -rf "$ckdir"' EXIT
go build -o "$ckdir/fbplace" ./cmd/fbplace
"$ckdir/fbplace" -cells 3000 -seed 7 -dump-hex "$ckdir/full.hex" >/dev/null
if "$ckdir/fbplace" -cells 3000 -seed 7 -checkpoint "$ckdir/ck" \
	-fault placer.level.fail:after=1,limit=1,panic=1 >/dev/null 2>&1; then
	echo "kill-and-resume: injected fault did not kill the run" >&2
	exit 1
fi
"$ckdir/fbplace" -cells 3000 -seed 7 -checkpoint "$ckdir/ck" -resume \
	-dump-hex "$ckdir/resumed.hex" >/dev/null
cmp "$ckdir/full.hex" "$ckdir/resumed.hex"

echo "== placement service e2e =="
# Service gate: fbplaced must serve a placement over HTTP whose positions
# are bit-identical to a direct fbplace run of the same instance, and a
# duplicate submission must be served from the result cache without
# running a second placement. See README "Placement as a service".
go build -o "$ckdir/fbplaced" ./cmd/fbplaced
"$ckdir/fbplace" -cells 800 -seed 11 -dump-hex "$ckdir/direct.hex" >/dev/null
"$ckdir/fbplaced" -addr 127.0.0.1:0 -portfile "$ckdir/port" \
	-dir "$ckdir/state" >"$ckdir/fbplaced.log" 2>&1 &
daemon=$!
for i in $(seq 1 100); do
	[ -s "$ckdir/port" ] && break
	sleep 0.1
done
base="http://$(cat "$ckdir/port")"
body='{"chip":{"NumCells":800,"Seed":11}}'
id=$(curl -sf -d "$body" "$base/jobs" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
[ -n "$id" ] || { echo "service e2e: submit returned no job id" >&2; exit 1; }
for i in $(seq 1 300); do
	state=$(curl -sf "$base/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
	case "$state" in done | failed | canceled) break ;; esac
	sleep 0.1
done
[ "$state" = done ] || { echo "service e2e: job ended $state" >&2; exit 1; }
curl -sf "$base/jobs/$id/result?format=hex" >"$ckdir/served.hex"
cmp "$ckdir/direct.hex" "$ckdir/served.hex"
# Duplicate submission: served from the cache, no second placement.
curl -sf -d "$body" "$base/jobs" >/dev/null
sleep 0.3
stats=$(curl -sf "$base/stats")
echo "$stats" | grep -q '"serve.cache.hits": 1' ||
	{ echo "service e2e: duplicate was not a cache hit: $stats" >&2; exit 1; }
echo "$stats" | grep -q '"serve.placements": 1' ||
	{ echo "service e2e: duplicate ran a second placement: $stats" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "service e2e: drain exited non-zero" >&2; exit 1; }

echo "== certification e2e =="
# Certify-and-repair gate (internal/certify): a certified run passes; one
# injected silent corruption (certify.corrupt bit-flips a position) is
# caught and repaired in safe mode with the repair on record; unlimited
# corruption must fail the run with the structured certify error. Safe
# mode is exactly "no pair pass, one worker", so the repaired positions
# must equal a plain run with those two settings. See README
# "Certification & safe mode".
"$ckdir/fbplace" -cells 2000 -seed 3 -certify >/dev/null
"$ckdir/fbplace" -cells 2000 -seed 3 -certify \
	-fault certify.corrupt:limit=1 -dump-hex "$ckdir/repaired.hex" >"$ckdir/certify.log"
grep -q 'degraded: certify fell back to safe-mode' "$ckdir/certify.log" ||
	{ echo "certification e2e: repair not recorded" >&2; exit 1; }
"$ckdir/fbplace" -cells 2000 -seed 3 -no-pair-pass -workers 1 \
	-dump-hex "$ckdir/safe.hex" >/dev/null
cmp "$ckdir/repaired.hex" "$ckdir/safe.hex"
if "$ckdir/fbplace" -cells 2000 -seed 3 -certify \
	-fault certify.corrupt >"$ckdir/certify2.log" 2>&1; then
	echo "certification e2e: unrepairable corruption did not fail the run" >&2
	exit 1
fi
grep -q 'certify:' "$ckdir/certify2.log" ||
	{ echo "certification e2e: failure lacks the certify error" >&2; exit 1; }

echo "== chaos soak =="
# Overload-protection gate: sustained mixed load under a tight memory
# budget, bounded queue and an armed fault storm (failing/corrupting
# checkpoint writes, bouncing admissions, stalling attempts, silently
# corrupting placements that certification must catch) at 1 and 4
# workers. Asserts the service sheds instead of crashing: zero goroutine
# leaks, every accepted job terminal, preempted/requeued jobs verify
# bit-identical, and a fresh round-trip works after the storm. See
# README "Overload & resource governance" and DESIGN.md §8.
go test -timeout 5m -run 'TestChaosSoak' ./internal/serve/

echo "== serve/obs race gate =="
# The scheduler and broadcast layers are the repo's concurrency hot spots
# (preemption, single-flight, fan-out); run them under the race detector
# unconditionally — even with -quick — so lock-discipline regressions
# cannot slip through a fast iteration loop. Quick mode skips only the
# chaos soak here (it just ran above, race-free; the full -race suite
# below still covers it in the default mode).
raceskip=''
[ "$quick" = 1 ] && raceskip='-skip=TestChaosSoak'
go test -race -timeout 20m $raceskip ./internal/serve/... ./internal/obs/...

echo "== fuzz smoke =="
# A few seconds per fuzz target: enough to replay the seed corpora under
# testdata/fuzz/ plus a short random exploration.
go test -fuzz 'FuzzRectAlgebra' -fuzztime 5s -timeout 5m ./internal/geom/
go test -fuzz 'FuzzParse' -fuzztime 5s -timeout 5m ./internal/bookshelf/
go test -fuzz 'FuzzReadChip' -fuzztime 5s -timeout 5m ./internal/chipio/

if [ "$quick" = 1 ]; then
	echo "== go test (quick, no -race) =="
	go test -timeout 15m ./...
else
	echo "== go test -race =="
	# The race detector slows the experiment harness ~10x past the default
	# 10-minute per-package timeout.
	go test -race -timeout 30m ./...
fi

echo "CI OK"
