#!/usr/bin/env python3
"""Steadiness report: run the benchmark repeatedly and show how much each
end-to-end metric moves between runs.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...] [--traced 2]

For every end-to-end metric x workload it prints the median, the quartiles
(statistics.quantiles(n=4)) and the quartile spread / median, next to the
metric's bound from BENCHMARK.json; a spread above a third of the bound is
flagged. Each run uses another seed. The determinism guard: the simulated
digest each run prints (every cell's simulated results and engine event
counts), the exact metrics (paper_gap, claims_held, ok_share) and the exact
per-layer counts of the N traced runs (--traced, default 2) must be
identical across runs; a difference is reported as a failure, not as
noise. Exits 1 on any failure.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import logic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Per-layer metrics that count simulated events: identical in every run.
EXACT_PER_LAYER = ("translate.tlb.", "translate.pwc.", "translate.walker.",
                   "core.mmu.", "cache.l1.", "dram.row_hit_rate.",
                   "dram.queue_delay_cy.", "noc.latency_cy.",
                   "sim.engine.events", "sim.engine.heap_peak")
EXACT_END_TO_END = {"paper_gap", "claims_held", "ok_share"}


DIGEST = "simulated digest: "


def run_once(workload, seed, seconds, trace):
    """(result object, simulated digest) of one run, or (None, None)."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, None
    digest = next((l.split(DIGEST, 1)[1].strip() for l in lines
                   if DIGEST in l), None)
    return json.loads(lines[-1]), digest


def exact_metrics(result, trace):
    m = result["metrics"]
    if trace:
        return {k: v["value"] for k, v in m.items()
                if k.startswith(EXACT_PER_LAYER)}
    return {k: m[k]["value"] for k in EXACT_END_TO_END if k in m}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failures = []
    for workload in workloads:
        values, exact, digests = {}, [], []
        for trace, runs in ((0, args.runs), (1, args.traced)):
            for k in range(runs):
                seed = args.first_seed + k
                r, digest = run_once(workload, seed, args.seconds, trace)
                if r is None or not r["correct"]:
                    failures.append("%s seed %d trace %d: %s" % (
                        workload, seed, trace,
                        "no result" if r is None else "incorrect output"))
                    continue
                exact.append((trace, seed, exact_metrics(r, trace)))
                digests.append((trace, seed, digest))
                if trace == 0:
                    for name, v in r["metrics"].items():
                        values.setdefault(name, []).append(v["value"])
                print("%s seed %d trace %d: %s" % (
                    workload, seed, trace, json.dumps(
                        {k: v["value"] for k, v in r["metrics"].items()}
                        if trace == 0 else {"attempted": r["attempted"]})),
                    flush=True)
        for trace in (0, 1):
            seen = [(s, e) for t, s, e in exact if t == trace]
            for seed, e in seen[1:]:
                if e != seen[0][1]:
                    diff = sorted(k for k in e if e[k] != seen[0][1].get(k))
                    failures.append("%s: exact metrics differ between seeds "
                                    "%d and %d: %s" % (workload, seen[0][0],
                                                       seed, diff[:5]))
        for trace, seed, digest in digests[1:]:
            if digest is None or digest != digests[0][2]:
                failures.append("%s: simulated digest of seed %d trace %d "
                                "(%s) differs from seed %d trace %d (%s)" % (
                                    workload, seed, trace, digest,
                                    digests[0][1], digests[0][0],
                                    digests[0][2]))
        print("\n%s (%d runs)" % (workload, args.runs))
        print("  %-16s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name in sorted(values):
            med, q1, q3, sp = logic.spread(values[name])
            bound = bounds.get(name)
            flag = "  <-- above bound/3" if bound and sp > bound / 3 else ""
            print("  %-16s %12.6g %12.6g %12.6g %8.4f %6s%s" % (
                name, med, q1, q3, sp, bound, flag))
    for f in failures:
        print("FAILED: %s" % f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
