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
# Regression guard for O(netlist) work per local QP: a small-block slice
# of a 10k-cell held system must allocate O(block). See README
# "Performance".
go test -timeout 5m -run 'TestSolveSliceAllocsOBlock' ./internal/qp/

echo "== benchmark smoke =="
# One iteration each of the realization-path microbenchmarks (local QP as
# a slice of the held system, its CSR assembly, realization level, one
# pair-pass transportation, transportation engines), of BestChoice
# clustering, of the global MCF ones (network simplex on a synthetic grid
# and on Table-I-shaped FBP models, and the build of those models), of
# the top-level QP, of legalization and of the recursive-baseline and
# local-QP ablations, so a change that breaks or pathologically slows them
# fails CI fast.
go test -timeout 10m -run '^$' -bench 'BenchmarkSolveSliceBlock|BenchmarkRealizeLevel|BenchmarkPairStep|BenchmarkSolveFBPGrid|BenchmarkBuildFBPModel|BenchmarkBestChoice' -benchtime 1x ./internal/qp/ ./internal/fbp/ ./internal/cluster/
go test -timeout 10m -run '^$' -bench 'BenchmarkNSGrid' -benchtime 1x ./internal/flow/
go test -timeout 10m -run '^$' -bench 'BenchmarkEngines|BenchmarkCondensedLarge|BenchmarkCondensedPairShape' -benchtime 1x ./internal/transport/
go test -timeout 10m -run '^$' -bench 'BenchmarkBuild' -benchtime 1x ./internal/sparse/
# Legalization alone on a flat and a movebounded 10k-cell chip, one
# placement's top-level QP solves on a held 5k-cell system, and one whole
# placement of a 5k-cell chip with 3 inclusive movebounds (the level
# schedule).
go test -timeout 10m -run '^$' -bench 'BenchmarkLegalize|BenchmarkTopLevelQP|BenchmarkPlace' -benchtime 1x ./internal/placer/
# The recursive baseline's one elastic solve per window (ablation A1) and
# the NoLocalQP switch, the local QP's on/off ablation.
go test -timeout 10m -run '^$' -bench 'BenchmarkAblationRecursive|BenchmarkAblationLocalQP' -benchtime 1x .

echo "== perfbench smoke =="
# One short run of each BENCHMARK.json workload through the benchmark's
# own driver: it builds from this checkout, places, checks every result
# and ends with one JSON line. A non-zero exit, a failed operation or an
# incorrect result fails CI. Before/after timing comparisons are
# perfbench/collect.py's job (see perfbench/README.md); this step only
# proves every workload still runs and verifies.
for w in mb-shallow flat-clustered table1-fine serve-mix; do
	if ! out=$(python3 perfbench/run.py --workload "$w" --seconds 2 --trace 0); then
		echo "$out" >&2
		echo "perfbench smoke: $w exited non-zero" >&2
		exit 1
	fi
	last=$(echo "$out" | tail -n 1)
	case "$last" in
	*'"correct":true'*'"failed":0,'*) echo "perfbench smoke: $w ok" ;;
	*)
		echo "perfbench smoke: $w: $last" >&2
		exit 1
		;;
	esac
done

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
go build -o "$ckdir/genchip" ./cmd/genchip
"$ckdir/fbplace" -cells 3000 -seed 7 -dump-hex "$ckdir/full.hex" >/dev/null
if "$ckdir/fbplace" -cells 3000 -seed 7 -checkpoint "$ckdir/ck" \
	-fault placer.level.fail:after=1,limit=1,panic=1 >/dev/null 2>&1; then
	echo "kill-and-resume: injected fault did not kill the run" >&2
	exit 1
fi
"$ckdir/fbplace" -cells 3000 -seed 7 -checkpoint "$ckdir/ck" -resume \
	-dump-hex "$ckdir/resumed.hex" >/dev/null
cmp "$ckdir/full.hex" "$ckdir/resumed.hex"

echo "== recursive baseline e2e =="
# The recursive baseline partitions its windows on the realization worker
# pool, so its placement must not depend on the worker count: one and four
# workers on a chip with movebounds give identical positions.
"$ckdir/genchip" -cells 3000 -seed 5 -movebounds 3 -o "$ckdir/mb.chip" 2>/dev/null
"$ckdir/fbplace" -i "$ckdir/mb.chip" -mode recursive -workers 1 -dump-hex "$ckdir/rec1.hex" >/dev/null
"$ckdir/fbplace" -i "$ckdir/mb.chip" -mode recursive -workers 4 -dump-hex "$ckdir/rec4.hex" >/dev/null
cmp "$ckdir/rec1.hex" "$ckdir/rec4.hex"

echo "== placement service e2e =="
# Service gate: fbplaced must serve a placement over HTTP whose positions
# are bit-identical to a direct fbplace run of the same instance, and a
# duplicate submission must be served from the result cache without
# running a second placement. See README "Placement as a service".
go build -o "$ckdir/fbplaced" ./cmd/fbplaced
"$ckdir/fbplace" -cells 800 -seed 11 -dump-hex "$ckdir/direct.hex" >/dev/null
body='{"chip":{"NumCells":800,"Seed":11}}'
# start_daemon DIR [FLAG...] starts fbplaced on a free port with its state
# in DIR and sets $daemon (its pid) and $base (its URL).
start_daemon() {
	sd=$1
	shift
	"$ckdir/fbplaced" -addr 127.0.0.1:0 -portfile "$sd.port" \
		-dir "$sd" "$@" >"$sd.log" 2>&1 &
	daemon=$!
	for i in $(seq 1 100); do
		[ -s "$sd.port" ] && break
		sleep 0.1
	done
	base="http://$(cat "$sd.port")"
}
# place_served OUT submits $body to $base, waits for the job to end, checks
# it is done and writes its served positions to OUT; sets $id.
place_served() {
	id=$(curl -sf -d "$body" "$base/jobs" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
	[ -n "$id" ] || { echo "service e2e: submit returned no job id" >&2; exit 1; }
	for i in $(seq 1 300); do
		state=$(curl -sf "$base/jobs/$id" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p')
		case "$state" in done | failed | canceled) break ;; esac
		sleep 0.1
	done
	[ "$state" = done ] || { echo "service e2e: job ended $state" >&2; exit 1; }
	curl -sf "$base/jobs/$id/result?format=hex" >"$1"
}
start_daemon "$ckdir/state"
place_served "$ckdir/served.hex"
cmp "$ckdir/direct.hex" "$ckdir/served.hex"
# The finished job's progress log over HTTP: the stream must return,
# carry the placement's root span and end with the done state event.
curl -sf --max-time 10 "$base/jobs/$id/events?format=jsonl" >"$ckdir/events.jsonl" ||
	{ echo "service e2e: /events did not return" >&2; exit 1; }
grep -q '^{"type":"span","name":"place",' "$ckdir/events.jsonl" ||
	{ echo "service e2e: /events lacks the place span" >&2; exit 1; }
tail -n 1 "$ckdir/events.jsonl" | grep -q '^{"type":"state","name":"done"}$' ||
	{ echo "service e2e: /events does not end with the done state" >&2; exit 1; }
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
# A disk that refuses every checkpoint write costs only the snapshots: a
# daemon with ckpt.write armed on every hit serves the same positions, and
# the result records the skipped writes (the JSON encoder writes "->" as
# "-\u003e", hence the loose pattern).
start_daemon "$ckdir/nockpt" -fault ckpt.write
place_served "$ckdir/nockpt.hex"
cmp "$ckdir/direct.hex" "$ckdir/nockpt.hex"
curl -sf "$base/jobs/$id/result" | grep -q '"ckpt.write .*skipped' ||
	{ echo "service e2e: failed checkpoint writes not recorded" >&2; exit 1; }
kill -TERM "$daemon"
wait "$daemon" || { echo "service e2e: drain exited non-zero" >&2; exit 1; }

echo "== certification e2e =="
# Certify-and-repair gate (internal/certify): a certified run passes; one
# injected silent corruption (certify.corrupt bit-flips a position) is
# caught and repaired by the placer's one re-run, recorded as a
# safe-mode degradation; unlimited corruption must fail the run with the
# structured certify error. Placements are bit-identical across worker
# counts, so the repaired positions must equal a plain default run. See
# README "Certification & safe mode".
"$ckdir/fbplace" -cells 2000 -seed 3 -certify >/dev/null
"$ckdir/fbplace" -cells 2000 -seed 3 -certify \
	-fault certify.corrupt:limit=1 -dump-hex "$ckdir/repaired.hex" >"$ckdir/certify.log"
grep -q 'degraded: certify fell back to safe-mode' "$ckdir/certify.log" ||
	{ echo "certification e2e: repair not recorded" >&2; exit 1; }
"$ckdir/fbplace" -cells 2000 -seed 3 -dump-hex "$ckdir/plain.hex" >/dev/null
cmp "$ckdir/repaired.hex" "$ckdir/plain.hex"
if "$ckdir/fbplace" -cells 2000 -seed 3 -certify \
	-fault certify.corrupt >"$ckdir/certify2.log" 2>&1; then
	echo "certification e2e: unrepairable corruption did not fail the run" >&2
	exit 1
fi
grep -q 'certify:' "$ckdir/certify2.log" ||
	{ echo "certification e2e: failure lacks the certify error" >&2; exit 1; }
# Detailed placement next to fixed cells: genchip keeps its default two
# macros, and a certified -detail run must leave no cell over them.
"$ckdir/genchip" -cells 5000 -seed 4 -o "$ckdir/macros.chip"
"$ckdir/fbplace" -i "$ckdir/macros.chip" -certify -detail 1 >/dev/null

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

echo "== serve/obs/fbp race gate =="
# The scheduler and broadcast layers and the realization worker pool are
# the repo's concurrency hot spots (preemption, single-flight, fan-out,
# per-worker scratch); run them under the race detector unconditionally —
# even with -quick — so lock-discipline regressions cannot slip through a
# fast iteration loop. Quick mode skips only the chaos soak here (it just
# ran above, race-free; the full -race suite below still covers it in the
# default mode).
raceskip=''
[ "$quick" = 1 ] && raceskip='-skip=TestChaosSoak'
go test -race -timeout 20m $raceskip ./internal/serve/... ./internal/obs/... ./internal/fbp/...

echo "== fuzz smoke =="
# A few seconds per fuzz target: enough to replay the seed corpora under
# testdata/fuzz/ plus a short random exploration.
go test -fuzz 'FuzzRectAlgebra' -fuzztime 5s -timeout 5m ./internal/geom/
go test -fuzz 'FuzzParse' -fuzztime 5s -timeout 5m ./internal/bookshelf/
go test -fuzz 'FuzzReadChip' -fuzztime 5s -timeout 5m ./internal/chipio/
# The checkpoint reader: Load never panics and accepts only intact frames.
# Each input is a whole file behind a CRC, so minimizing one that reached
# new coverage can take the whole budget; cap it so the smoke explores.
go test -fuzz 'FuzzLoad' -fuzztime 5s -fuzzminimizetime 200x -timeout 5m ./internal/ckpt/

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
