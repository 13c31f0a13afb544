#!/usr/bin/env python3
"""Tests of the benchmark's own logic: python3 perfbench/test_run.py

They need no build: the program's raw output is forged here."""

import contextlib
import io
import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def mjpeg_raw(guarantees):
    return {
        "ops": [{"s": 0.5 + 0.01 * i, "interconnect": "fsl" if i % 2 else "noc",
                 "guarantee": g, "buffer_scale": 4, "buffer_bytes": 69664}
                for i, g in enumerate(guarantees)],
        "measured_s": 0.5 * len(guarantees),
        "peak_rss_kb": 18000,
        "host_ref_s": [run.NOMINAL_REF_S],
    }


def dse_raw(front):
    points = [{"s": 0.1 * t, "interconnect": ic, "tiles": t}
              for ic in ("fsl", "noc") for t in range(1, 6)]
    return {
        "ops": [{"wall": 2.0, "points": points, "failures": 0, "front": front,
                 "best_guarantee": [1, 43249], "best_buffer_bytes": 59296}],
        "measured_s": 2.0,
        "peak_rss_kb": 50000,
        "host_ref_s": [run.NOMINAL_REF_S],
    }


def serve_raw(answered, executed=2, distinct=2):
    ops = [{"s": 0.002, "http": 200, "status": "completed",
            "resubmitted": False, "guarantee": g, "expected": [1, 183],
            "buffer_bytes": 152} for g in answered]
    return {"ops": ops, "measured_s": 1.0, "peak_rss_kb": 24000,
            "executed": executed, "distinct": distinct,
            "host_ref_s": [run.NOMINAL_REF_S]}


class Percentile(unittest.TestCase):
    def check(self, n, rank):
        value, pct, count = run.tail(list(range(1, n + 1)))
        self.assertEqual(value, rank)
        self.assertEqual(count, n)
        self.assertAlmostEqual(pct, 100.0 * rank / n)

    def test_too_few_for_ten_beyond_falls_back_to_the_median(self):
        self.check(9, 5)
        self.check(10, 6)

    def test_eleven_samples_stay_at_the_median(self):
        self.check(11, 6)

    def test_hundred_samples_give_p90(self):
        self.check(100, 90)
        value, _, _ = run.tail(list(range(1, 101)))
        self.assertEqual(sum(1 for x in range(1, 101) if x > value), 10)

    def test_order_of_samples_does_not_matter(self):
        self.assertEqual(run.tail([5, 1, 4, 2, 3] * 4)[0],
                         run.tail(sorted([5, 1, 4, 2, 3] * 4))[0])


class Correctness(unittest.TestCase):
    def test_mjpeg_pinned_guarantee_passes(self):
        attempted, failed, values, _ = run.evaluate(
            "mjpeg_map", mjpeg_raw([[1, 43249]] * 4))
        self.assertEqual((attempted, failed), (4, 0))
        self.assertEqual(values["ok_ratio"], 1.0)
        self.assertAlmostEqual(values["guarantee_mcu_per_mhz_s"], 23.121922, 6)

    def test_forged_mjpeg_guarantee_counts_as_failed(self):
        attempted, failed, values, _ = run.evaluate(
            "mjpeg_map", mjpeg_raw([[1, 43249], [1, 43250], [1, 43249], []]))
        self.assertEqual((attempted, failed), (4, 2))
        self.assertEqual(values["ok_ratio"], 0.5)

    def test_forged_dse_front_fails_every_point_of_the_sweep(self):
        front = [list(p) for p in run.DSE_FRONT]
        front[1][2] = [1, 43815]
        attempted, failed, values, _ = run.evaluate("dse_sweep", dse_raw(front))
        self.assertEqual((attempted, failed), (10, 10))
        self.assertEqual(values["ok_ratio"], 0.0)
        self.assertEqual(run.evaluate("dse_sweep", dse_raw(run.DSE_FRONT))[1], 0)

    def test_forged_serve_answer_and_dedup_count_fail(self):
        _, failed, _, _ = run.evaluate("serve_jobs",
                                       serve_raw([[1, 183], [1, 184]]))
        self.assertEqual(failed, 1)
        _, failed, _, notes = run.evaluate(
            "serve_jobs", serve_raw([[1, 183]] * 2, executed=3))
        self.assertEqual(failed, 1)
        self.assertTrue(any("executed" in n for n in notes))

    def test_conformance_violation_fails(self):
        ops = [{"s": 0.01, "seed": s, "passed": s != 2, "cases": 1,
                "violations": int(s == 2), "guarantee": [1, 29],
                "buffer_bytes": 72} for s in range(4)]
        raw = {"ops": ops, "measured_s": 0.04, "peak_rss_kb": 19000,
               "host_ref_s": [run.NOMINAL_REF_S]}
        self.assertEqual(run.evaluate("conformance_seeds", raw)[1], 1)


class ConformanceTail(unittest.TestCase):
    def test_the_tail_is_taken_over_seed_medians(self):
        # 30 seeds, three passes; twelve seeds are slow in the first pass
        # only, which over single ops would put the tail rank among them
        ops = [{"s": 0.001, "seed": s, "passed": True, "cases": 1,
                "violations": 0, "guarantee": [1, 29], "buffer_bytes": 72}
               for _ in range(3) for s in range(30)]
        for o in ops[:12]:
            o["s"] = 1.0
        raw = {"ops": ops, "measured_s": 1.0, "peak_rss_kb": 19000,
               "host_ref_s": [run.NOMINAL_REF_S]}
        self.assertEqual(run.tail([o["s"] for o in ops])[0], 1.0)
        _, _, values, notes = run.evaluate("conformance_seeds", raw)
        self.assertAlmostEqual(values["op_tail_s"], 0.001)
        self.assertIn("op_tail_s is p66.7 of 30 seed medians", notes)


class HostScale(unittest.TestCase):
    def test_a_host_twice_as_slow_reads_the_same(self):
        raw = mjpeg_raw([[1, 43249]] * 4)
        slow = mjpeg_raw([[1, 43249]] * 4)
        for op in slow["ops"]:
            op["s"] *= 2
        slow["measured_s"] *= 2
        slow["host_ref_s"] = [2 * run.NOMINAL_REF_S] * 3
        _, _, values, _ = run.evaluate("mjpeg_map", raw)
        _, _, slow_values, _ = run.evaluate("mjpeg_map", slow)
        for name in ("op_p50_s", "op_tail_s", "ops_per_s"):
            self.assertAlmostEqual(values[name], slow_values[name])

    def test_the_median_sample_sets_the_scale(self):
        raw = dict(mjpeg_raw([[1, 43249]] * 2),
                   host_ref_s=[0.001, 2 * run.NOMINAL_REF_S, 1.0])
        self.assertAlmostEqual(run.host_scale(raw), 0.5)

    def test_a_run_without_samples_is_not_reported(self):
        raw = dict(mjpeg_raw([[1, 43249]] * 2), host_ref_s=[])
        with self.assertRaises(run.RunError):
            run.evaluate("mjpeg_map", raw)


class MetricNames(unittest.TestCase):
    spec = run.load_spec()

    def printed(self, trace, raw):
        saved = (run.build, run.setup_seconds, run.run_workload)
        run.build = lambda: None
        run.setup_seconds = lambda workload: 0.0123
        run.run_workload = lambda *args: raw
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "mjpeg_map", "--seed", "1",
                                 "--seconds", "1", "--trace", str(trace)])
        finally:
            run.build, run.setup_seconds, run.run_workload = saved
        return code, json.loads(out.getvalue().strip().splitlines()[-1])

    def test_end_to_end_names_equal_benchmark_json(self):
        code, result = self.printed(0, mjpeg_raw([[1, 43249]] * 2))
        self.assertEqual(code, 0)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])
        for m in self.spec["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_per_layer_names_equal_benchmark_json(self):
        raw = dict(mjpeg_raw([[1, 43249]] * 2), layers={"sdf.mcm_s": 0.1})
        code, result = self.printed(1, raw)
        self.assertEqual(code, 0)
        self.assertEqual(list(result["metrics"]),
                         [m["name"] for m in self.spec["per_layer"]])

    def test_wrong_answer_exits_non_zero(self):
        code, result = self.printed(0, mjpeg_raw([[1, 43249], [1, 2]]))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_every_name_the_program_records_is_declared(self):
        here = Path(run.__file__).parent
        source = "".join((here / f).read_text()
                         for f in ("bench.ml", "replay.ml"))
        layers = r"(?:flow_map|sdf|mapping|arch|mamps|sim|appmodel|core|gen|" \
                 r"conformance|exec|serve|gc|trace)"
        recorded = set(re.findall(r'"(%s\.[a-z0-9_.]+|recover_s)"' % layers,
                                  source))
        recorded |= {"flow_map.round%d.%s" % (k, w) for k in range(1, 6)
                     for w in re.findall(r'round_metric k "([a-z_]+)"', source)}
        # a count folded into a ratio before printing, and the daemon's
        # own counter, read back for a correctness check
        recorded -= {"sdf.mcm.fallbacks", "serve.jobs.executed"}
        declared = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(recorded, declared)


if __name__ == "__main__":
    unittest.main()
