"""Tests for perfbench's own logic.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import random
import statistics
import time
import unittest

import metrics as m
import run


def instance(first=-1, found=False, best=0.0, greedy=-100.0, steps=None,
             cal=m.CAL_REF_MS):
    steps = steps if steps is not None else [2.0, 3.0, 5.0]
    return {"first_feasible_iter": first, "ttff_ms": 5.0 if first >= 0 else 0,
            "sweeps_to_feasible": 1000 * (first + 1) if first >= 0 else 0,
            "iterations": len(steps), "mcs_per_run": 1000,
            "step_ms": steps, "found_feasible": found, "best_cost": best,
            "greedy_cost": greedy, "feasible_count": 1 if found else 0,
            "total_runs": len(steps), "cpu_s": sum(steps) / 1e3,
            "calibrate_every": 2, "cal_ms": [cal] * 3}


def traced(inst):
    out = dict(inst, run_ms=[s * 0.9 for s in inst["step_ms"]],
               fields_updated_ms=0.01, judge_ms=0.02)
    out["traced_mcs"] = out["iterations"] * out["mcs_per_run"]
    return out


SETUP = {"total_ms": 17.0, "map_ms": 3.0, "build_ms": 7.0, "bind_ms": 3.0,
         "cal_ms": m.CAL_REF_MS}


def session(trace):
    replies = []
    for k in range(4):
        r = {"id": "t%d" % k, "status": "completed", "seq": k,
             "iterations": 2, "total_sweeps": 60, "feasible_count": 0,
             "batch_size": 1}
        if trace:
            r["timing"] = {"queue_ms": 0.1, "setup_ms": 0.05,
                           "solve_ms": 0.1 + k, "emit_ms": 1.5,
                           "total_ms": 0.3}
        replies.append(r)
    return {"setups": [0.01, 0.02, 0.03], "n": 4, "ids": ["t0", "t1", "t2",
                                                           "t3"],
            "replies": replies, "lat_ms": [2.0, 3.0, 4.0, 9.0], "cpu": 0.2,
            "wall": 2.0, "spawn_ms": [m.SPAWN_REF_MS] * 3}


class QuantileTest(unittest.TestCase):
    def test_matches_inclusive_rule_exactly(self):
        rng = random.Random(7)
        xs = [rng.lognormvariate(1.0, 0.7) for _ in range(999)]
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        for q in (1, 50, 90, 99):
            self.assertAlmostEqual(m.quantile(xs, q / 100.0), cuts[q - 1],
                                   places=12)

    def test_interpolates_raw_samples_not_buckets(self):
        # A 2x-bucket histogram reports this p99 at a bucket edge (4.096);
        # raw samples put it between the two largest values.
        xs = [2.7] * 98 + [5.5, 14.6]
        self.assertAlmostEqual(m.quantile(xs, 0.99), 5.5 + 9.1 * 0.01)
        self.assertEqual(m.median([3.0, 1.0, 2.0, 10.0]), 2.5)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            m.quantile([], 0.5)
        with self.assertRaises(ValueError):
            m.quantile([1.0], 1.5)


class PoissonScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = m.poisson_schedule(42, 200.0, 500)
        random.random()  # the global generator must not matter
        self.assertEqual(a, m.poisson_schedule(42, 200.0, 500))
        self.assertNotEqual(a, m.poisson_schedule(43, 200.0, 500))

    def test_increasing_at_the_offered_rate(self):
        s = m.poisson_schedule(1, 200.0, 20000)
        self.assertTrue(all(b > a for a, b in zip(s, s[1:])))
        self.assertAlmostEqual(len(s) / s[-1], 200.0, delta=200.0 * 0.03)


class Algo1Test(unittest.TestCase):
    def test_never_feasible_is_charged_the_whole_solve(self):
        ttff, mcs = m.censored_first_feasible(instance(first=-1))
        self.assertAlmostEqual(ttff, 0.010)
        self.assertEqual(mcs, 3 * 1000)

    def test_feasible_instance_uses_its_first_feasible_step(self):
        ttff, mcs = m.censored_first_feasible(instance(first=0, found=True))
        self.assertAlmostEqual(ttff, 0.005)
        self.assertEqual(mcs, 1000)

    def test_becoming_feasible_lowers_both_sums(self):
        never = m.algo1_summary([instance(first=-1), instance(first=-1)])
        one = m.algo1_summary([instance(first=1, found=True, best=-90.0),
                               instance(first=-1)])
        self.assertLess(one["ttff_s"], never["ttff_s"])
        self.assertLess(one["mcs_to_feasible"], never["mcs_to_feasible"])
        self.assertEqual(never["never_feasible"], 2)
        self.assertEqual(one["never_feasible"], 1)

    def test_gap_is_against_the_fixed_greedy_reference(self):
        self.assertEqual(m.gap_pct(instance(found=False)), 100.0)
        self.assertAlmostEqual(
            m.gap_pct(instance(first=0, found=True, best=-90.0)), 10.0)
        # Better than greedy is a negative gap, never clipped to 0.
        self.assertAlmostEqual(
            m.gap_pct(instance(first=0, found=True, best=-110.0)), -10.0)
        s = m.algo1_summary([instance(first=0, found=True, best=-90.0),
                             instance()])
        self.assertAlmostEqual(s["gap_pct"], 55.0)

    def test_reference_speed_scales_by_the_calibration_chunks(self):
        at_ref = instance(steps=[2.0, 4.0, 6.0])
        for a, b in zip(m.reference_steps(at_ref), [2.0, 4.0, 6.0]):
            self.assertAlmostEqual(a, b)
        # A host twice as slow takes twice as long for steps and chunks
        # alike; the reference-speed figures do not move.
        slow = instance(steps=[4.0, 8.0, 12.0], cal=2 * m.CAL_REF_MS)
        for a, b in zip(m.reference_steps(slow), [2.0, 4.0, 6.0]):
            self.assertAlmostEqual(a, b)

    def test_window_reference_is_robust_to_one_stalled_chunk(self):
        cal = [1.0, 1.0, 1.0, 50.0, 1.0, 1.0, 1.0, 1.0]
        self.assertEqual([m.window_reference(cal, w) for w in range(5)],
                         [1.0] * 5)

    def test_check_compares_every_field(self):
        same = {"found_feasible": True, "best_cost": -5.0,
                "feasible_count": 3, "total_sweeps": 3000}
        self.assertTrue(m.check_matches({"stepped": same, "solve": same}))
        for key, value in (("best_cost", -6.0), ("feasible_count", 2),
                           ("total_sweeps", 2000), ("found_feasible", False)):
            self.assertFalse(m.check_matches(
                {"stepped": same, "solve": dict(same, **{key: value})}))


class DeliveryTest(unittest.TestCase):
    def reply(self, i, seq, status="completed"):
        return {"id": i, "seq": seq, "status": status}

    def test_exactly_once_in_sequence_passes(self):
        replies = [self.reply("b", 0), self.reply("a", 1)]
        self.assertEqual(m.delivery_failures(["a", "b"], replies), 0)

    def test_every_miss_counts(self):
        ids = ["a", "b", "c"]
        self.assertEqual(m.delivery_failures(ids, [self.reply("a", 0),
                                                   self.reply("b", 1)]), 1)
        self.assertEqual(m.delivery_failures(
            ids, [self.reply("a", 0), self.reply("b", 1),
                  self.reply("c", 2, "deadline")]), 1)
        self.assertEqual(m.delivery_failures(
            ids, [self.reply("a", 0), self.reply("b", 1), self.reply("c", 1)]),
            2)
        self.assertEqual(m.delivery_failures(
            ids, [self.reply("a", 0), self.reply("b", 1), self.reply("c", 3)]),
            1)
        # A duplicate fails its job and pushes a later seq out of range.
        self.assertEqual(m.delivery_failures(
            ids, [self.reply("a", 0), self.reply("a", 1), self.reply("b", 2),
                  self.reply("c", 3)]), 2)
        self.assertEqual(m.delivery_failures(
            ["a"], [self.reply("a", 0), {"id": "x", "error": "bad"}]), 1)


class LinesTest(unittest.TestCase):
    def test_a_lost_reply_ends_the_wait_at_the_deadline(self):
        r, w = os.pipe()
        with os.fdopen(r, "rb", buffering=0) as pipe:
            lines = run.Lines(pipe)
            os.write(w, b"a\nb\npartial")
            soon = time.perf_counter() + 0.05
            self.assertEqual(lines.next(soon), b"a")
            self.assertEqual(lines.next(soon), b"b")
            self.assertIsNone(lines.next(soon))  # no newline yet: no line
            self.assertGreaterEqual(time.perf_counter(), soon)
            os.write(w, b" line\n")
            os.close(w)
            later = time.perf_counter() + 5.0
            self.assertEqual(lines.next(later), b"partial line")
            self.assertIsNone(lines.next(later))  # end of file, not deadline
            self.assertTrue(lines.eof)
            self.assertLess(time.perf_counter(), later)
            lines.close()


class ContractTest(unittest.TestCase):
    def setUp(self):
        self.contract = m.load_contract()
        self.e2e = {s["name"] for s in self.contract["end_to_end"]}
        self.layers = {s["name"] for s in self.contract["per_layer"]}

    def test_every_workload_emits_every_metric_with_its_unit(self):
        insts = [instance(first=0, found=True, best=-90.0), instance()]
        summary = m.algo1_summary(insts)
        layers, _ = m.algo1_layers([SETUP], [traced(i) for i in insts],
                                   summary["p50_ms"])
        produced = [
            (m.algo1_e2e([SETUP], summary), False), (layers, True),
            (m.server_e2e(session(False)), False),
            (m.server_layers(session(True), 3.5), True),
        ]
        for values, trace in produced:
            self.assertEqual(set(values), self.layers if trace else self.e2e)
            line = json.loads(m.result_line(True, 4, 0, values, trace,
                                            self.contract))
            specs = self.contract["per_layer" if trace else "end_to_end"]
            for spec in specs:
                self.assertEqual(line["metrics"][spec["name"]]["unit"],
                                 spec["unit"])
                self.assertEqual(line["metrics"][spec["name"]]["value"],
                                 values[spec["name"]])
            self.assertEqual(set(line), {"correct", "attempted", "failed",
                                         "metrics"})

    def test_run_has_every_workload_of_the_contract(self):
        self.assertEqual(set(run.WORKLOADS),
                         {w["name"] for w in self.contract["workloads"]})

    def test_missing_or_extra_metric_is_an_error(self):
        values = m.server_e2e(session(False))
        with self.assertRaises(ValueError):
            m.result_line(True, 1, 0, dict(values, extra=1.0), False,
                          self.contract)
        values.pop("p50_ms")
        with self.assertRaises(ValueError):
            m.result_line(True, 1, 0, values, False, self.contract)

    def test_end_to_end_bounds_within_contract(self):
        names = [s["name"] for s in self.contract["end_to_end"]]
        self.assertIn("setup_s", names)
        for spec in self.contract["end_to_end"]:
            self.assertLessEqual(spec["bound"], 0.25)
            self.assertEqual(spec["better"], "lower")

    def test_server_set_up_scales_by_the_spawn_probe(self):
        values = m.server_e2e(session(False))
        self.assertAlmostEqual(values["setup_s"], 0.02)
        self.assertAlmostEqual(values["p50_ms"], 3.5)
        # Spawns twice as slow: set-up halves, latency stays as measured.
        slow = dict(session(False), spawn_ms=[2 * m.SPAWN_REF_MS] * 3)
        self.assertAlmostEqual(m.server_e2e(slow)["setup_s"], 0.01)
        self.assertAlmostEqual(m.server_e2e(slow)["p50_ms"], 3.5)
        layers = m.server_layers(session(True), 3.5)
        self.assertAlmostEqual(layers["proc.cpu_ms_per_job"], 50.0)
        self.assertAlmostEqual(layers["trace.overhead_pct"], 0.0)

    def test_batch_size_mean_counts_executions(self):
        replies = [{"batch_size": 2}, {"batch_size": 2}, {"batch_size": 1}]
        self.assertAlmostEqual(m.batch_size_mean(replies), 1.5)


if __name__ == "__main__":
    unittest.main()
