#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --runs 10 --first-seed 1 --out a.json
    python3 perfbench/collect.py --runs 10 --first-seed 11 --against a.json --out b.json
    python3 perfbench/collect.py --runs 3 --trace 1 --out layers.json

For every workload named in BENCHMARK.json (or --workloads) it runs
perfbench/run.py once per seed and reports, for every metric and layer line
the runs print, the median, the quartiles (Python's statistics.quantiles,
n=4), the run count and the spread (q3 - q1) / median. A traced run's layer
times also get their share of the same run's untraced wall_s.

Each end-to-end metric of BENCHMARK.json is judged on untraced runs: "ok"
when its spread is below a third of its bound, "WIDE" up to the bound and
"FAIL" beyond it. With --against, a median worse than that summary's by more
than the bound is a FAIL as well. The exit code is 1 on a FAIL or an
incorrect run; the first run that exits non-zero stops the script. Run it
from the repository root. The summary, with each run's provenance, goes to
--out; per-run records and traces go to --records when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def summarize(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return {"median": v, "q1": v, "q3": v, "runs": len(values), "spread": 0.0}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values),
            "spread": (q3 - q1) / q2 if q2 else 0.0}


def run_once(workload, seed, seconds, trace, records):
    """One benchmark run: its JSON line, provenance and printed figures."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if records:
        cmd += ["--out", records]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    prov, printed = None, {}
    for line in lines:
        f = line.split()
        if f and f[0] == "provenance":
            prov = json.loads(line.split(" ", 1)[1])
        elif f and f[0] in ("metric", "layer") and len(f) >= 4:
            printed[f[1]] = (f[0], float(f[2]), f[3])
    return json.loads(lines[-1]), prov, printed


def worse_by(median, base, better):
    """How much worse median is than base, as a share of base."""
    if not base:
        return 0.0
    return (median - base) / base if better == "lower" else (base - median) / base


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--against", help="an earlier --out summary to compare the medians with")
    ap.add_argument("--out")
    ap.add_argument("--records")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    base = {}
    if args.against:
        with open(args.against) as f:
            base = json.load(f)["workloads"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    trace = int(args.trace)
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    summary = {"seconds": seconds, "seeds": seeds, "trace": trace, "workloads": {}, "provenance": []}
    ok = True
    for w in workloads:
        values, shares, correct = {}, {}, True
        for seed in seeds:
            res, prov, printed = run_once(w, seed, seconds, trace, args.records)
            summary["provenance"].append(prov)
            correct = correct and res["correct"] and res["failed"] == 0
            wall = printed["wall_s"][1]
            for name, (kind, v, unit) in printed.items():
                values.setdefault(name, []).append(v)
                if trace and kind == "layer" and unit == "s":
                    shares.setdefault(name, []).append(v / wall if wall else 0.0)
            host = f"steal {prov['steal_frac']:.3f} elapsed {prov['elapsed_s']:.1f}s: " if prov else ""
            shown = ("fbp.realize_s", "flow.solve_s", "trace.overhead_frac") if trace else gated
            print(f"  {w} seed {seed} trace {trace}: {host}" + ", ".join(
                f"{k}={printed[k][1]:.4g}" for k in shown if k in printed), flush=True)
        entry = {k: summarize(v) for k, v in sorted(values.items())}
        for k, v in shares.items():
            entry[k]["share_of_wall"] = statistics.median(v)
        summary["workloads"][w] = {"metrics": entry, "correct": correct}
        ok = ok and correct
        if trace:
            continue
        for name, m in gated.items():
            s = entry[name]
            verdict = "ok" if s["spread"] < m["bound"] / 3 else ("WIDE" if s["spread"] <= m["bound"] else "FAIL")
            drift = ""
            if w in base:
                d = worse_by(s["median"], base[w]["metrics"][name]["median"], m["better"])
                drift = f" worse-by {d:+.4f}"
                if d > m["bound"]:
                    verdict = "FAIL"
            ok = ok and verdict != "FAIL"
            print(f"{w:15s} {name:12s} median {s['median']:.6g} q1 {s['q1']:.6g} "
                  f"q3 {s['q3']:.6g} n {s['runs']} spread {s['spread']:.4f}{drift} "
                  f"bound {m['bound']} {verdict}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
