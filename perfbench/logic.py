"""Pure logic of the benchmark: output checks, fidelity metrics, statistics.

Nothing here runs the simulator; run.py feeds it parsed documents and
timings, and test_logic.py pins its behaviour.
"""
import hashlib
import json
import math
import statistics

REAL_MECHANISMS = ("Radix", "ECH", "HugePage", "NDPage")
PAPER_MECHANISMS = REAL_MECHANISMS + ("Ideal",)
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


# --- statistics ---------------------------------------------------------------

def quantile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values, min_beyond=10, ladder=TAIL_LADDER):
    """The highest ladder percentile with at least `min_beyond` samples
    strictly beyond it. Returns (percentile, value, sample count), or None
    when even the median has fewer than `min_beyond` samples beyond it."""
    best = None
    if not values:
        return best
    for pct in ladder:
        value = quantile(values, pct)
        if sum(1 for v in values if v > value) >= min_beyond:
            best = (pct, value, len(values))
    return best


def spread(values):
    """(median, first quartile, third quartile, quartile spread / median),
    quartiles as statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# --- output checks -------------------------------------------------------------

def cell_key(cell):
    spec = cell["spec"]
    return (spec["mechanism"], spec["workload"], spec["cores"])


def check_batch(doc, expected, instructions):
    """Failures of one batch document against its grid: every expected
    (mechanism, workload, cores) cell present exactly once, and each cell
    retired at least its budget on every core. Returns a list of messages,
    one per failed cell."""
    failures = []
    seen = {}
    for cell in doc.get("results", []):
        seen.setdefault(cell_key(cell), []).append(cell)
    for key in sorted(expected):
        cells = seen.get(key, [])
        if len(cells) != 1:
            failures.append("cell %s appears %d times" % (key, len(cells)))
            continue
        need = instructions * key[2]
        got = cells[0].get("total_instructions", 0)
        if got < need:
            failures.append("cell %s retired %d < %d instructions"
                            % (key, got, need))
    for key in sorted(set(seen) - set(expected)):
        failures.append("unexpected cell %s" % (key,))
    return failures


def done_envelope(line):
    """The raw bytes of a `done` frame's "envelope" member, as the daemon
    wrote them (the envelope is the frame's last member), or None when the
    line is not a done frame."""
    head = '"envelope":'
    if not line.startswith('{"type":"done"'):
        return None
    at = line.find(head)
    if at < 0 or not line.endswith("}"):
        return None
    return line[at + len(head):-1]


def served_matches_batch(done_line, batch_text):
    """True when a served `done` frame embeds exactly the batch document's
    bytes (the batch file may end with one newline)."""
    envelope = done_envelope(done_line)
    return envelope is not None and envelope == batch_text.rstrip("\n")


def strip_host(doc):
    """The document without its host_profile blocks: what must repeat
    exactly across runs of one commit."""
    if isinstance(doc, dict):
        return {k: strip_host(v) for k, v in doc.items() if k != "host_profile"}
    if isinstance(doc, list):
        return [strip_host(v) for v in doc]
    return doc


def simulated_digest(cells):
    """A short digest of what must repeat exactly for one commit: every
    cell's simulated content (host_profile stripped) and, where the cell has
    a host_profile, its engine event count and heap peak. Cells are taken in
    sorted order, so the digest does not depend on the order a grid lists
    its axes in, nor on host timings."""
    rows = []
    for cell in cells:
        counters = cell.get("host_profile", {}).get("counters", {})
        rows.append(json.dumps([strip_host(cell), counters.get("events"),
                                counters.get("heap_peak")], sort_keys=True))
    return hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16]


# --- fidelity ------------------------------------------------------------------

def speedups(cells, baseline="Radix"):
    """{(mechanism, workload, cores): baseline cycles / cycles} over cells of
    the paper's unparameterized mechanisms."""
    cycles = {cell_key(c): c["total_cycles"] for c in cells
              if c["spec"]["mechanism"] in PAPER_MECHANISMS}
    out = {}
    for (mech, workload, cores), cy in cycles.items():
        base = cycles.get((baseline, workload, cores))
        if mech != baseline and base and cy:
            out[(mech, workload, cores)] = base / cy
    return out


def geomeans(sp):
    """{(mechanism, cores): geometric-mean speedup} over workloads."""
    logs = {}
    for (mech, _, cores), s in sp.items():
        logs.setdefault((mech, cores), []).append(math.log(s))
    return {k: math.exp(sum(v) / len(v)) for k, v in logs.items()}


def paper_gap(geo, points):
    """Mean |ln(simulated / paper)| over the paper's quoted geomean speedups
    that this grid covers, plus one (point, simulated) row per point."""
    rows, logs = [], []
    for p in points:
        sim = geo.get((p["mechanism"], p["cores"]))
        rows.append((p, sim))
        if sim:
            logs.append(abs(math.log(sim / p["speedup"])))
    return (sum(logs) / len(logs) if logs else None), rows


def claims(geo, sp):
    """Whether each of the paper's five claims holds on this grid, in the
    order reference.json lists them. A claim the grid has no data for does
    not hold."""
    def g(mech, cores):
        return 1.0 if mech == "Radix" else geo.get((mech, cores))

    def best_real(cores):
        ndp = g("NDPage", cores)
        rivals = [g(m, cores) for m in REAL_MECHANISMS if m != "NDPage"]
        return ndp is not None and None not in rivals and ndp > max(rivals)

    others = [(k, s) for k, s in sp.items() if k[0] != "Ideal"]
    ideal_bounds = bool(others) and all(
        sp.get(("Ideal",) + k[1:], 0.0) >= s for k, s in others)
    hp1, hp8 = g("HugePage", 1), g("HugePage", 8)
    n1, n8, e1, e8 = g("NDPage", 1), g("NDPage", 8), g("ECH", 1), g("ECH", 8)
    return [
        best_real(1),
        best_real(8),
        ideal_bounds,
        None not in (hp1, hp8) and hp8 < hp1,
        None not in (n1, n8, e1, e8) and n8 / e8 > n1 / e1,
    ]


# --- simulated per-component statistics ---------------------------------------

def _family(mechanism):
    return mechanism.split("(", 1)[0]


def component_stats(cells):
    """Simulated per-component statistics per mechanism family (a family
    pools its parameter variants), summed over the given cells."""
    acc = {}
    for cell in cells:
        fam = _family(cell["spec"]["mechanism"])
        a = acc.setdefault(fam, {"instr": 0, "c": {}, "avg": {}})
        a["instr"] += cell["total_instructions"]
        for name, v in cell["stats"]["counters"].items():
            a["c"][name] = a["c"].get(name, 0) + v
        for name, v in cell["stats"].get("averages", {}).items():
            s, n = a["avg"].get(name, (0.0, 0))
            a["avg"][name] = (s + v["mean"] * v["count"], n + v["count"])
    out = {}
    for fam, a in acc.items():
        c, instr = a["c"], a["instr"]

        def ratio(num, den):
            return num / den if den else 0.0

        def mean(name):
            s, n = a["avg"].get(name, (0.0, 0))
            return ratio(s, n)

        pwc_hits = sum(v for k, v in c.items()
                       if k.startswith("pwc.") and k.endswith(".hit"))
        pwc_all = pwc_hits + sum(v for k, v in c.items()
                                 if k.startswith("pwc.") and k.endswith(".miss"))
        out[fam] = {
            "translate.tlb.l1_mpki": ratio(1000 * c.get("tlb.l1d.miss", 0), instr),
            "translate.tlb.l2_mpki": ratio(1000 * c.get("tlb.l2.miss", 0), instr),
            "translate.pwc.hit_rate": ratio(pwc_hits, pwc_all),
            "translate.walker.accesses_per_walk": mean("walker.accesses_per_walk"),
            "translate.walker.latency_cy": mean("walker.latency"),
            "core.mmu.faults": c.get("mmu.faults", 0),
            "cache.l1.pte_hit_rate": ratio(
                c.get("l1.hit.meta", 0),
                c.get("l1.hit.meta", 0) + c.get("l1.miss.meta", 0)),
            "cache.l1.pollution_pki": ratio(
                1000 * c.get("l1.pollution_victims", 0), instr),
            "dram.row_hit_rate": ratio(
                c.get("dram.row_hit", 0),
                c.get("dram.row_hit", 0) + c.get("dram.row_miss", 0)),
            "dram.queue_delay_cy": mean("dram.queue_delay"),
            "noc.latency_cy": mean("noc.request_latency"),
        }
    return out
