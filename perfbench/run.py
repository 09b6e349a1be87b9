#!/usr/bin/env python3
"""Benchmark of the NDPage simulator (ndpsim), measured from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds ndpsim, the host-speed probe
host_speed and, for --trace 1, the per-layer driver layer_probe into
.bench_build/, runs the named workload for S measured seconds, checks every
output, and prints a report followed, as the last line of stdout, by one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload again
with ndpsim's --trace-out, adds the layer_probe pass, and reports the
per-layer metrics. Host timings are scaled by the host-speed probe (see
HostSpeed). Workloads, the paper's reference points and the five claims are
data in perfbench/reference.json.
"""
import argparse
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing but .bench_build/ behind
import logic  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
REF = json.loads((BENCH / "reference.json").read_text())

SETUP_PHASES = ("build_ns", "build_cached_ns", "install_ns", "prefault_ns",
                "snapshot_ns")
CELL_PHASES = ("install_ns", "prefault_ns", "warmup_ns", "run_ns", "collect_ns",
               "snapshot_ns")
# Simulated per-component statistics reported per mechanism family; a family
# is listed where the statistic exists for it (Ideal translates nothing, ECH
# has no page-walk caches).
TRANSLATING = ("Radix", "ECH", "HugePage", "NDPage")
COMPONENT_FAMILIES = {
    "translate.tlb.l1_mpki": TRANSLATING,
    "translate.tlb.l2_mpki": TRANSLATING,
    "translate.pwc.hit_rate": ("Radix", "HugePage", "NDPage"),
    "translate.walker.accesses_per_walk": TRANSLATING,
    "translate.walker.latency_cy": TRANSLATING,
    "core.mmu.faults": TRANSLATING,
    "cache.l1.pte_hit_rate": TRANSLATING,
    "cache.l1.pollution_pki": logic.PAPER_MECHANISMS,
    "dram.row_hit_rate": logic.PAPER_MECHANISMS,
    "dram.queue_delay_cy": logic.PAPER_MECHANISMS,
    "noc.latency_cy": logic.PAPER_MECHANISMS,
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """The environment for ndpsim: budgets come from the grids alone."""
    env = dict(os.environ)
    for var in ("NDPAGE_INSTRS", "NDPSIM_LOG"):
        env.pop(var, None)
    return env


# --- build ---------------------------------------------------------------------

TARGETS = ["ndpsim", "host_speed"]
BINARIES = {"ndpsim": "ndp/ndpsim", "host_speed": "host_speed/host_speed",
            "layer_probe": "layer_probe"}


def build(targets):
    subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD)],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j4", "--target"]
                   + list(targets), check=True, stdout=sys.stderr)
    return {t: BUILD / BINARIES[t] for t in targets}


# --- processes -----------------------------------------------------------------

class Proc:
    """A child process whose exit status and peak RSS come from wait4."""

    def __init__(self, argv, stdout, stderr):
        self.popen = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                      env=child_env(), cwd=ROOT)
        self.start = time.monotonic()
        self.wall = None
        self.rc = None
        self.rss_mb = None

    def _reap(self, flags):
        pid, status, usage = os.wait4(self.popen.pid, flags)
        if pid:
            self.wall = time.monotonic() - self.start
            self.rc = os.waitstatus_to_exitcode(status)
            self.rss_mb = usage.ru_maxrss / 1024.0
            self.popen.returncode = self.rc
        return pid != 0

    def poll(self):
        if self.rc is None:
            self._reap(os.WNOHANG)
        return self.rc

    def wait(self, timeout=None):
        """Reap the process; kill it first if it outlives `timeout` s."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.rc is None:
            if deadline is None:
                self._reap(0)
            elif not self._reap(os.WNOHANG):
                if time.monotonic() > deadline:
                    self.popen.kill()
                    deadline = None
                else:
                    time.sleep(0.02)
        return self.rc

    def stop(self):
        if self.rc is None:
            self.popen.kill()
            self.wait()


def run_ndpsim(ndpsim, args, out_json, log_path):
    with open(log_path, "ab") as err:
        p = Proc([str(ndpsim)] + args + ["--json=%s" % out_json],
                 subprocess.DEVNULL, err)
        p.wait(timeout=170)
    doc = None
    if p.rc == 0:
        try:
            doc = json.loads(Path(out_json).read_text())
        except (OSError, ValueError):
            doc = None
    return p, doc


class HostSpeed:
    """Samples of the host-speed probe around measured work.

    Host timings are reported in reference seconds: wall seconds divided by
    how much slower than reference.json's `host_speed_reference_s` the probe
    ran around the timed work. On hosts whose clock rate moves by tens of
    percent between minutes (shared machines), this keeps a slow minute from
    reading as a slow simulator; the raw wall figures are printed too."""

    def __init__(self, probe):
        self.probe = probe

    def sample(self):
        runs = [float(subprocess.run([str(self.probe)], check=True, text=True,
                                     stdout=subprocess.PIPE).stdout)
                for _ in range(2)]
        return statistics.mean(runs) / REF["host_speed_reference_s"]


# --- shared reporting ----------------------------------------------------------

class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, n, failures):
        self.attempted += n
        self.failed += min(n, len(failures))
        self.reasons.extend(failures[:3])


def fidelity(cells):
    """(paper_gap, claims held, report lines) over a set of result cells."""
    sp = logic.speedups(cells)
    geo = logic.geomeans(sp)
    gap, rows = logic.paper_gap(geo, REF["paper_points"])
    held = logic.claims(geo, sp)
    lines = []
    for p, sim in rows:
        lines.append("  %s %-8s %d core(s): simulated %s, paper %.3f" % (
            p["figure"], p["mechanism"], p["cores"],
            "%.3f" % sim if sim else "n/a", p["speedup"]))
    for text, ok in zip(REF["claims"], held):
        lines.append("  claim %s: %s" % ("holds " if ok else "FAILS ", text))
    return gap, sum(held), lines


def latency_metrics(groups, label, min_beyond=10):
    """(p50, tail, report line) over groups of latency samples: each group's
    p50 and tail (the highest percentile with >= min_beyond samples beyond
    it), then the median over groups, so a group count that varies between
    runs cannot move the tail to another percentile."""
    p50s, tails = [], []
    for samples in groups:
        t = logic.tail(samples, min_beyond)
        if t is None:
            raise RuntimeError("too few %s samples for a tail (%d)"
                               % (label, len(samples)))
        p50s.append(statistics.median(samples))
        tails.append(t[1])
    report = ("  %s latency: p50 %.4f s, tail p%g %.4f s (n=%d per group, "
              ">= %d beyond, %d group(s))" % (
                  label, statistics.median(p50s), t[0],
                  statistics.median(tails), t[2], min_beyond, len(groups)))
    return statistics.median(p50s), statistics.median(tails), report


def component_metrics(cells):
    stats = logic.component_stats(cells)
    out = {}
    for name, families in COMPONENT_FAMILIES.items():
        for fam in families:
            unit = ("count" if name.endswith("faults") else
                    "cycles" if name.endswith("_cy") else
                    "1/kinstr" if name.endswith("ki") else "ratio")
            out["%s.%s" % (name, fam.lower())] = (
                stats.get(fam, {}).get(name, 0.0), unit)
    return out


def session_hit_ratio(session, kind):
    """hits / (hits + builds) of one Session cache ("prepared", "image" or
    "material"), from a session stats block."""
    hits, builds = session["%s_hits" % kind], session["%s_builds" % kind]
    return hits / (hits + builds) if hits + builds else 0.0


def phase_metrics(profile):
    """Per-layer numbers from a sweep-level host_profile block."""
    merged = profile["merged"]
    ph, counters, session = merged["phases"], merged["counters"], profile["session"]

    return {
        "sim.phase.build_s": (ph["build_ns"] / 1e9, "s"),
        "sim.phase.restore_s": (ph["build_cached_ns"] / 1e9, "s"),
        "sim.phase.prefault_s": (ph["prefault_ns"] / 1e9, "s"),
        "sim.phase.warmup_s": (ph["warmup_ns"] / 1e9, "s"),
        "sim.phase.run_s": (ph["run_ns"] / 1e9, "s"),
        "sim.engine.run_ns_per_instr": (
            ph["run_ns"] / max(1, profile["simulated_instructions"]), "ns"),
        "sim.engine.events": (counters["events"], "count"),
        "sim.engine.heap_peak": (counters["heap_peak"], "count"),
        "sim.session.image_hit_ratio": (
            session_hit_ratio(session, "image"), "ratio"),
        "sim.session.material_hit_ratio": (
            session_hit_ratio(session, "material"), "ratio"),
        "sim.session.prepared_hit_ratio": (
            session_hit_ratio(session, "prepared"), "ratio"),
    }


def merge_profiles(profiles):
    """One sweep-level host_profile summing several (served replays)."""
    out = json.loads(json.dumps(profiles[0]))
    for p in profiles[1:]:
        for k, v in p["merged"]["phases"].items():
            out["merged"]["phases"][k] += v
        for k, v in p["merged"]["counters"].items():
            c = out["merged"]["counters"]
            c[k] = max(c[k], v) if k == "heap_peak" else c[k] + v
        for k, v in p["session"].items():
            out["session"][k] += v
        out["simulated_instructions"] += p["simulated_instructions"]
    return out


def probe_layers(probe, spec, grid, cores, workdir):
    """Run the per-layer driver on the workload's own inputs: its simulated
    workloads, dataset scale and core counts, its grid document, and a wire
    request carrying that grid."""
    tiny = {"name": "tiny", "mechanisms": ["radix", "ndpage"],
            "workloads": spec["probe_workloads"][:2], "cores": [1],
            "instructions": 20000, "scale": grid["scale"]}
    request = json.dumps({"op": "run", "id": "q", "config": grid})
    job = {"workloads": spec["probe_workloads"], "scale": grid["scale"],
           "cores": cores, "seed": 42, "grid": grid, "request": request,
           "tiny": tiny}
    job_path = workdir / "probe_job.json"
    job_path.write_text(json.dumps(job))
    with open(workdir / "probe.log", "ab") as err:
        out = subprocess.run([str(probe), str(job_path)], stdout=subprocess.PIPE,
                             stderr=err, env=child_env(), cwd=ROOT, timeout=120)
    if out.returncode != 0:
        raise RuntimeError("layer_probe failed (see %s)" % (workdir / "probe.log"))

    def unit(name):
        for part in name.split("."):
            suffix = part.rsplit("_", 1)[-1]
            if suffix in ("ns", "us", "ms", "s"):
                return suffix
        return "ratio"

    return {name: (value, unit(name))
            for name, value in json.loads(out.stdout).items()}


# --- batch workloads: paper-cold, engine-hot --------------------------------------

def rotate(items, k):
    k %= len(items)
    return items[k:] + items[:k]


def seeded_grid(grid, seed):
    """The grid with its mechanism and workload axes rotated by the seed: the
    same design points, so the same simulated results, for every seed, in an
    order whose neighbouring cells (which share the host when --jobs 2) stay
    mostly the same."""
    g = json.loads(json.dumps(grid))
    g["mechanisms"] = rotate(g["mechanisms"], seed)
    g["workloads"] = rotate(g["workloads"], seed)
    return g


def popularity_deck(weights, deck_seed):
    """One cycle of the served request mix: index i appears weights[i]
    times, in an order shuffled once by `deck_seed` (fixed, so every run
    replays the same mix and the same cache reuse pattern)."""
    deck = [i for i, w in enumerate(weights) for _ in range(w)]
    random.Random(deck_seed).shuffle(deck)
    return deck


CANONICAL = {"radix": "Radix", "ech": "ECH", "hugepage": "HugePage",
             "ndpage": "NDPage", "ideal": "Ideal"}


def expected_cells(grid):
    """The (mechanism, workload, cores) cells a grid must produce, with
    mechanisms spelled as result documents spell them ("ECH(ways=4)")."""
    mechs = []
    for m in grid["mechanisms"]:
        base, paren, params = m.partition("(")
        mechs.append(CANONICAL[base] + paren + params)
    return {(m, w, c) for m in mechs for w in grid["workloads"]
            for c in grid["cores"]}


class BatchPass:
    """One ndpsim process over the grid; `slow` is the host-speed probe's
    slowdown around it (see HostSpeed)."""

    def __init__(self, proc, doc, slow):
        self.proc, self.doc, self.slow = proc, doc, slow

    @property
    def ok(self):
        return self.doc is not None

    def wall(self):
        return self.proc.wall / self.slow

    def setup_s(self):
        ph = self.doc["host_profile"]["merged"]["phases"]
        return sum(ph[k] for k in SETUP_PHASES) / 1e9 / self.slow

    def cell_seconds(self):
        """Each cell's own host time, install through collect. System
        assembly and the Session's shared image and trace-material builds
        are left out: they land on whichever cell misses a cache first, so
        they follow cell order rather than the cell (setup_s has them)."""
        return [sum(c["host_profile"]["phases"][k] for k in CELL_PHASES)
                / 1e9 / self.slow for c in self.doc["results"]]


def batch_workload(name, seed, seconds, trace, workdir):
    spec = REF["workloads"][name]
    bins = build(TARGETS + (["layer_probe"] if trace else []))
    speed = HostSpeed(bins["host_speed"])
    grid = seeded_grid(spec["grid"], seed)
    grid_path = workdir / "grid.json"
    grid_path.write_text(json.dumps(grid))
    expected = expected_cells(grid)
    tally = Tally()
    reference = None

    slow_before = [speed.sample()]

    def one_pass(i, traced):
        nonlocal reference
        args = ["--config", str(grid_path), "--jobs", str(spec["jobs"]),
                "--profile"]
        if traced:
            args.append("--trace-out=%s" % (workdir / "trace.json"))
        proc, doc = run_ndpsim(bins["ndpsim"], args, workdir / ("out%d.json" % i),
                               workdir / "ndpsim.log")
        slow_after = speed.sample()
        slow = (slow_before[-1] + slow_after) / 2
        slow_before.append(slow_after)
        if doc is None:
            failures = ["pass %d: ndpsim exited %d" % (i, proc.rc)] * len(expected)
        else:
            failures = logic.check_batch(doc, expected, grid["instructions"])
            sim = logic.simulated_digest(doc["results"])
            if reference is None:
                reference = sim
            elif sim != reference:
                failures = ["pass %d: simulated results differ from pass 0"
                            % i] * len(expected)
        tally.add(len(expected), failures)
        return BatchPass(proc, doc, slow)

    # Untraced passes fill the measured window (half of it for --trace 1);
    # a pass starts only if a typical pass still fits.
    window = seconds / 2.0 if trace else seconds
    start = time.monotonic()
    passes = [one_pass(0, False)]
    while True:
        typical = statistics.median(p.proc.wall for p in passes)
        if time.monotonic() - start + typical > window:
            break
        passes.append(one_pass(len(passes), False))
    good = [p for p in passes if p.ok]
    if not good:
        raise RuntimeError("every pass failed: %s" % tally.reasons[:3])
    gap, held, fid_lines = fidelity(good[0].doc["results"])
    report = ["%s: %d pass(es); wall %s s; host slowdown %s" % (
        name, len(passes), ", ".join("%.2f" % p.proc.wall for p in good),
        ", ".join("%.3f" % p.slow for p in good))] + fid_lines
    report.append("  simulated digest: %s" % reference)

    if not trace:
        # Every pass re-measures the same cells, so the passes pool into one
        # group and the tail keeps >= 10 distinct cells beyond it: the
        # percentile stays put whether the window held 3 passes or 5.
        p50, tail_s, lat_line = latency_metrics(
            [sum((p.cell_seconds() for p in good), [])], "cell",
            min_beyond=10 * len(good))
        report.append(lat_line)
        metrics = {
            "cells_per_s": (statistics.median(
                len(p.doc["results"]) / p.wall() for p in good), "1/s"),
            "setup_s": (statistics.median(p.setup_s() for p in good), "s"),
            "peak_rss_mb": (statistics.median(p.proc.rss_mb for p in good), "MB"),
            "request_p50_s": (p50, "s"),
            "request_tail_s": (tail_s, "s"),
            "paper_gap": (gap, "ln"),
            "claims_held": (held, "count"),
        }
    else:
        traced = one_pass(len(passes), True)
        if not traced.ok:
            raise RuntimeError("traced pass failed")
        report.append("  traced pass wall %.2f s" % traced.proc.wall)
        metrics = phase_metrics(traced.doc["host_profile"])
        metrics["obs.trace_overhead_ratio"] = (
            traced.wall() / statistics.median(p.wall() for p in good), "ratio")
        metrics.update(component_metrics(traced.doc["results"]))
        metrics.update(probe_layers(bins["layer_probe"], spec, grid,
                                    grid["cores"], workdir))
    return tally, metrics, report


# --- served-whatif -------------------------------------------------------------

class Daemon:
    """One `ndpsim --serve` process and a closed-loop client connection."""

    def __init__(self, ndpsim, jobs, workdir, tag, extra=()):
        self.log_path = workdir / ("daemon-%s.log" % tag)
        self.log = open(self.log_path, "wb")
        self.proc = Proc([str(ndpsim), "--serve", "--port=0", "--jobs=%d" % jobs]
                         + list(extra), subprocess.DEVNULL, self.log)
        self.sock = None
        try:
            port = self._wait_ready()
            self.sock = socket.create_connection(("127.0.0.1", port),
                                                 timeout=120)
        except (RuntimeError, OSError):
            self.proc.stop()
            self.log.close()
            raise
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self.next_id = 0

    def _wait_ready(self):
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = self.log_path.read_text(errors="replace")
            at = text.find("serve.ready port=")
            if at >= 0:
                digits = text[at + len("serve.ready port="):].split()[0]
                return int(digits)
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("daemon did not become ready (%s)" % self.log_path)

    def request(self, payload):
        """Send one request; return (latency s, terminal frame line)."""
        self.next_id += 1
        rid = "r%d" % self.next_id
        line = json.dumps(dict(payload, id=rid), separators=(",", ":")) + "\n"
        t0 = time.monotonic()
        self.sock.sendall(line.encode())
        while True:
            frame = self.reader.readline()
            if not frame:
                raise RuntimeError("daemon closed the connection")
            frame = frame.rstrip("\n")
            if '"type":"cell"' in frame[:20]:
                continue
            return time.monotonic() - t0, frame

    def stats(self):
        _, frame = self.request({"op": "stats"})
        return json.loads(frame)

    def shutdown(self):
        try:
            if self.sock is not None:
                self.sock.sendall(b'{"op":"shutdown","id":"z"}\n')
                while self.reader.readline():
                    pass
        except OSError:
            pass
        finally:
            if self.sock is not None:
                self.sock.close()
            self.proc.wait(timeout=30)
            self.log.close()


LATENCY_GROUP_CYCLES = 5
SPEED_SAMPLE_S = 5.0


def served_workload(name, seed, seconds, trace, workdir):
    spec = REF["workloads"][name]
    bins = build(TARGETS + (["layer_probe"] if trace else []))
    speed = HostSpeed(bins["host_speed"])
    grids = []
    for i, req in enumerate(spec["requests"]):
        g = {"name": "whatif-%d" % i, "systems": ["ndp"],
             "mechanisms": req["mechanisms"], "workloads": [req["workload"]],
             "cores": [req["cores"]], "instructions": spec["instructions"],
             "scale": spec["scale"], "baseline": "radix"}
        if "overrides" in req:
            g["overrides"] = req["overrides"]
        grids.append(g)
    # One cycle of the popularity mix; the seed picks where in the cycle the
    # client starts.
    deck = rotate(popularity_deck([r["weight"] for r in spec["requests"]],
                                  spec["deck_seed"]), seed)
    tally = Tally()
    served = {i: [] for i in range(len(grids))}  # grid -> done frames

    def submit(daemon, i):
        latency, frame = daemon.request({"op": "run", "config": grids[i]})
        served[i].append(frame)
        return latency

    def warm_pass(daemon):
        """One request per distinct grid (every distinct platform)."""
        for i in range(len(grids)):
            submit(daemon, i)

    def measure(daemon, window):
        """Closed loop over the popularity cycle for `window` seconds, with a
        host-speed sample every few seconds (the daemon idles meanwhile).
        Returns the latencies of each complete cycle, the cells and busy
        seconds of all requests, all scaled by the slowdown, and the
        slowdown."""
        cycles, raw, cells, t0 = [], [], 0, time.monotonic()
        slows, next_sample = [speed.sample()], t0 + SPEED_SAMPLE_S
        while time.monotonic() - t0 < window:
            cycle = []
            for i in deck:
                cycle.append(submit(daemon, i))
                cells += len(grids[i]["mechanisms"])
                if time.monotonic() >= next_sample:
                    slows.append(speed.sample())
                    next_sample = time.monotonic() + SPEED_SAMPLE_S
                if time.monotonic() - t0 >= window:
                    break
            raw.extend(cycle)
            if len(cycle) == len(deck):
                cycles.append(cycle)
        slows.append(speed.sample())
        slow = statistics.mean(slows)
        if not cycles:  # a window shorter than one cycle: use what it held
            cycles = [raw]
        return ([[x / slow for x in c] for c in cycles], cells,
                sum(raw) / slow, slow)

    def incarnation(tag, window, extra=()):
        """Spawn a daemon, warm it with one pass over every distinct
        platform (its set-up), then measure closed-loop traffic."""
        slow0 = speed.sample()
        t0 = time.monotonic()
        d = Daemon(bins["ndpsim"], spec["jobs"], workdir, tag, extra)
        daemons.append(d)
        warm_pass(d)
        setup_raw = time.monotonic() - t0
        cycles, cells, busy, slow = measure(d, window)
        session = d.stats()["session"]
        d.shutdown()
        return {"setup": setup_raw / ((slow0 + slow) / 2), "cycles": cycles,
                "cells": cells, "busy": busy, "slow": slow,
                "rss": d.proc.rss_mb, "session": session}

    daemons = []
    try:
        if trace:
            runs = [incarnation("untraced", seconds / 2.0)]
            traced = incarnation("traced", seconds / 2.0,
                                 ["--trace-out=%s" % (workdir / "trace.json")])
        else:
            n = spec["incarnations"]
            runs = [incarnation("i%d" % k, seconds / n) for k in range(n)]
    finally:
        for d in daemons:
            d.proc.stop()
            d.log.close()
    cycles = [c for r in runs for c in r["cycles"]]
    cells = sum(r["cells"] for r in runs)
    busy = sum(r["busy"] for r in runs)
    setups = [r["setup"] for r in runs]

    # Output check: every done envelope byte-identical to the batch document
    # of the same grid from the same build.
    docs = {}
    for i, g in enumerate(grids):
        path = workdir / ("grid%d.json" % i)
        path.write_text(json.dumps(g))
        proc, doc = run_ndpsim(bins["ndpsim"],
                               ["--config", str(path), "--jobs", str(spec["jobs"])],
                               workdir / ("batch%d.json" % i), workdir / "batch.log")
        failures = ["grid %d: batch run exited %d" % (i, proc.rc)] if doc is None \
            else logic.check_batch(doc, expected_cells(g), g["instructions"])
        batch_text = "" if doc is None else \
            (workdir / ("batch%d.json" % i)).read_text()
        docs[i] = doc
        for frame in served[i]:
            bad = list(failures)
            if not logic.served_matches_batch(frame, batch_text):
                bad.append("grid %d: served document differs from batch: %s"
                           % (i, frame[:120]))
            tally.add(1, bad[:1])

    plain = [c for i, d in docs.items() if d and "overrides" not in grids[i]
             for c in d["results"]]
    gap, held, fid_lines = fidelity(plain)
    report = ["%s: %d complete cycles, %.2f busy s; set-up %s s; host slowdown %s"
              % (name, len(cycles), busy, ", ".join("%.2f" % x for x in setups),
                 ", ".join("%.3f" % r["slow"] for r in runs))] + fid_lines
    report.append("  session hit ratios per daemon (prepared / image / "
                  "material): %s" % "; ".join(
                      "%.3f / %.3f / %.3f" % tuple(
                          session_hit_ratio(r["session"], k)
                          for k in ("prepared", "image", "material"))
                      for r in runs))
    report.append("  simulated digest: %s" % logic.simulated_digest(
        [c for i in sorted(docs) if docs[i] for c in docs[i]["results"]]))
    # Latency groups of whole popularity cycles: every group holds the same
    # mix of requests, and the same count, so its percentiles sit at the same
    # place in the mix whatever the window held.
    if not trace:
        k = LATENCY_GROUP_CYCLES
        groups = [sum(cycles[j:j + k], [])
                  for j in range(0, len(cycles) - k + 1, k)]
        p50, tail_s, lat_line = latency_metrics(groups or [sum(cycles, [])],
                                                "request")
        report.append(lat_line)
        metrics = {
            "cells_per_s": (cells / busy, "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss"] for r in runs), "MB"),
            "request_p50_s": (p50, "s"),
            "request_tail_s": (tail_s, "s"),
            "paper_gap": (gap, "ln"),
            "claims_held": (held, "count"),
        }
        return tally, metrics, report

    # Per-layer: the Session's own counters come from the daemon; phases and
    # engine counts from --profile batch replays of the distinct grids.
    profiles = []
    for i in range(len(grids)):
        _, doc = run_ndpsim(bins["ndpsim"],
                            ["--config", str(workdir / ("grid%d.json" % i)),
                             "--jobs", str(spec["jobs"]), "--profile"],
                            workdir / ("profile%d.json" % i), workdir / "batch.log")
        if doc is None:
            raise RuntimeError("profile replay of grid %d failed" % i)
        profiles.append(doc["host_profile"])
    merged = merge_profiles(profiles)
    merged["session"] = runs[0]["session"]
    metrics = phase_metrics(merged)
    metrics["obs.trace_overhead_ratio"] = (
        (traced["busy"] / traced["cells"]) / (busy / cells), "ratio")
    metrics.update(component_metrics(
        [c for d in docs.values() if d for c in d["results"]]))
    cores = sorted({r["cores"] for r in spec["requests"]})
    metrics.update(probe_layers(bins["layer_probe"], spec, grids[0], cores,
                                workdir))
    return tally, metrics, report


# --- main ----------------------------------------------------------------------

WORKLOADS = {"paper-cold": batch_workload, "engine-hot": batch_workload,
             "served-whatif": served_workload}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no simulator sources next to perfbench/")
        return 2

    workdir = BUILD / ("run-%s-%d" % (args.workload, os.getpid()))
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        tally, metrics, report = WORKLOADS[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in report:
        print(line)
    for reason in tally.reasons[:10]:
        print("  FAILED: %s" % reason)
    for name, (value, unit) in sorted(metrics.items()):
        moves = next((m["moves"] for m in REF["per_layer_moves"]
                      if name.startswith(tuple(m["prefixes"]))), "")
        print("  %-44s %14.6g %-8s %s" % (name, value, unit,
                                          moves if args.trace else ""))
    if not args.trace:
        metrics["ok_share"] = (
            (tally.attempted - tally.failed) / tally.attempted, "ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
