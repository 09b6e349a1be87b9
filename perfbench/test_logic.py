"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""
import json
import math
import unittest

import logic


def cell(mech, workload, cores, cycles, instructions=1000):
    return {"spec": {"mechanism": mech, "workload": workload, "cores": cores},
            "total_cycles": cycles, "total_instructions": instructions}


POINTS = [
    {"figure": "Fig. 12", "mechanism": "NDPage", "cores": 1, "speedup": 1.344},
    {"figure": "Fig. 14", "mechanism": "ECH", "cores": 8, "speedup": 1.0782},
]


class PaperGapTest(unittest.TestCase):
    def test_mean_abs_log_ratio_over_covered_points(self):
        geo = {("NDPage", 1): 1.344 * math.e, ("ECH", 8): 1.0782 / math.e ** 2}
        gap, rows = logic.paper_gap(geo, POINTS)
        self.assertAlmostEqual(gap, 1.5)
        self.assertEqual([sim for _, sim in rows], [geo[("NDPage", 1)],
                                                    geo[("ECH", 8)]])

    def test_exact_match_is_zero_and_missing_points_are_skipped(self):
        gap, rows = logic.paper_gap({("NDPage", 1): 1.344}, POINTS)
        self.assertEqual(gap, 0.0)
        self.assertIsNone(rows[1][1])
        self.assertIsNone(logic.paper_gap({}, POINTS)[0])

    def test_geomean_speedups_from_cells(self):
        cells = [cell("Radix", "A", 1, 200), cell("NDPage", "A", 1, 100),
                 cell("Radix", "B", 1, 100), cell("NDPage", "B", 1, 50),
                 cell("NDPage(pwc_l3=8)", "B", 1, 10)]
        sp = logic.speedups(cells)
        self.assertEqual(sp, {("NDPage", "A", 1): 2.0, ("NDPage", "B", 1): 2.0})
        self.assertAlmostEqual(logic.geomeans(sp)[("NDPage", 1)], 2.0)


def grid(speed):
    """Cells whose speedup over Radix is speed[(mech, cores)] on workload W."""
    cells = []
    for cores in (1, 8):
        cells.append(cell("Radix", "W", cores, 1000))
        for mech in ("ECH", "HugePage", "NDPage", "Ideal"):
            cells.append(cell(mech, "W", cores, 1000 / speed[(mech, cores)]))
    return cells


def held(speed):
    sp = logic.speedups(grid(speed))
    return logic.claims(logic.geomeans(sp), sp)


PAPER_LIKE = {("ECH", 1): 1.176, ("HugePage", 1): 1.08, ("NDPage", 1): 1.344,
              ("Ideal", 1): 1.6, ("ECH", 8): 1.078, ("HugePage", 8): 0.901,
              ("NDPage", 8): 1.407, ("Ideal", 8): 1.7}


class ClaimsTest(unittest.TestCase):
    def test_paper_numbers_hold_every_claim(self):
        self.assertEqual(held(PAPER_LIKE), [True] * 5)

    def test_each_claim_fails_on_its_own_counterexample(self):
        T, F = True, False
        cases = [  # (change to the paper's numbers, claims expected to hold)
            ({("HugePage", 1): 1.5}, [F, T, T, T, T]),
            # ECH best at 8 cores also shrinks NDPage's margin over it.
            ({("ECH", 8): 1.5}, [T, F, T, T, F]),
            ({("Ideal", 8): 1.3}, [T, T, F, T, T]),
            ({("HugePage", 8): 1.09}, [T, T, T, F, T]),
            ({("ECH", 8): 1.407 / 1.344 * 1.176 * 1.01}, [T, T, T, T, F]),
        ]
        for change, expected in cases:
            self.assertEqual(held({**PAPER_LIKE, **change}), expected, change)

    def test_claims_without_data_do_not_hold(self):
        self.assertEqual(logic.claims({}, {}), [False] * 5)


class TailTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        values = list(range(1, 201))  # 200 samples
        self.assertEqual(logic.tail(values), (95.0, 190, 200))
        self.assertEqual(logic.tail(values[:199]), (90.0, 180, 199))
        self.assertEqual(logic.tail(list(range(1000))), (99.0, 989, 1000))

    def test_ties_do_not_count_as_beyond(self):
        values = [1.0] * 95 + [2.0] * 10  # p95 is 2.0: nothing beyond it
        self.assertEqual(logic.tail(values), (90.0, 1.0, 105))
        self.assertIsNone(logic.tail([1.0] * 30))

    def test_too_few_samples(self):
        self.assertIsNone(logic.tail(list(range(19))))
        self.assertEqual(logic.tail(list(range(20)))[0], 50.0)

    def test_min_beyond_scales_with_repeated_passes(self):
        # Four passes over the same 40 cells: with >= 10 cells (40 samples)
        # beyond, the tail stays at the one-pass percentile, p75.
        pooled = list(range(40)) * 4
        self.assertEqual(logic.tail(pooled, 40)[:2], (75.0, 29))
        self.assertEqual(logic.tail(list(range(40)), 10)[:2], (75.0, 29))
        self.assertEqual(logic.tail(pooled)[0], 90.0)

    def test_spread_uses_statistics_quartiles(self):
        med, q1, q3, sp = logic.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((med, q1, q3), (5.5, 2.75, 8.25))
        self.assertAlmostEqual(sp, 1.0)


class ServedCheckTest(unittest.TestCase):
    BATCH = '{"name":"g","results":[{"spec":{}}]}\n'

    def frame(self, envelope, kind="done"):
        return '{"type":"%s","id":"r1","cells":1,"envelope":%s}' % (kind, envelope)

    def test_identical_envelope_matches(self):
        self.assertTrue(logic.served_matches_batch(
            self.frame(self.BATCH.rstrip("\n")), self.BATCH))

    def test_any_byte_difference_fails(self):
        self.assertFalse(logic.served_matches_batch(
            self.frame('{"name":"g","results":[{"spec":{ }}]}'), self.BATCH))
        self.assertFalse(logic.served_matches_batch(
            self.frame('{"name":"g","results":[]}'), self.BATCH))

    def test_non_done_frames_fail(self):
        self.assertFalse(logic.served_matches_batch(
            '{"type":"error","id":"r1","error":"boom"}', self.BATCH))
        self.assertFalse(logic.served_matches_batch(
            self.frame(self.BATCH.rstrip("\n"), kind="cell"), self.BATCH))


class BatchCheckTest(unittest.TestCase):
    EXPECTED = {("Radix", "W", 1), ("NDPage", "W", 8)}

    def test_complete_document_passes(self):
        doc = {"results": [cell("Radix", "W", 1, 5, 1000),
                           cell("NDPage", "W", 8, 5, 8000)]}
        self.assertEqual(logic.check_batch(doc, self.EXPECTED, 1000), [])

    def test_missing_duplicate_short_and_unexpected_cells_fail(self):
        doc = {"results": [cell("Radix", "W", 1, 5, 999),
                           cell("Ideal", "W", 1, 5, 1000)]}
        failures = logic.check_batch(doc, self.EXPECTED, 1000)
        self.assertEqual(len(failures), 3, failures)
        doc = {"results": [cell("Radix", "W", 1, 5, 1000)] * 2
               + [cell("NDPage", "W", 8, 5, 8000)]}
        self.assertEqual(len(logic.check_batch(doc, self.EXPECTED, 1000)), 1)

    def test_simulated_digest_ignores_order_and_host_time(self):
        a = dict(cell("Radix", "W", 1, 5), host_profile={
            "phases": {"run_ns": 1}, "counters": {"events": 7, "heap_peak": 8}})
        b = dict(cell("NDPage", "W", 1, 4), host_profile={
            "phases": {"run_ns": 2}, "counters": {"events": 9, "heap_peak": 8}})
        slower = json.loads(json.dumps(a))
        slower["host_profile"]["phases"]["run_ns"] = 99
        self.assertEqual(logic.simulated_digest([a, b]),
                         logic.simulated_digest([b, slower]))

    def test_simulated_digest_sees_results_and_event_counts(self):
        a = dict(cell("Radix", "W", 1, 5),
                 host_profile={"counters": {"events": 7, "heap_peak": 8}})
        more_events = json.loads(json.dumps(a))
        more_events["host_profile"]["counters"]["events"] = 8
        other_cycles = dict(a, total_cycles=6)
        digests = {logic.simulated_digest([x])
                   for x in (a, more_events, other_cycles)}
        self.assertEqual(len(digests), 3)

    def test_strip_host_removes_every_host_profile(self):
        doc = {"host_profile": 1, "results": [{"host_profile": 2, "x": 3}]}
        self.assertEqual(logic.strip_host(doc), {"results": [{"x": 3}]})


if __name__ == "__main__":
    unittest.main()
