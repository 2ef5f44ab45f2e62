"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout.  The seed test builds omn_perfbench the
way run.py does (skipped when the checkout has no sources).
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


class TailRule(unittest.TestCase):
    def test_rank_keeps_ten_samples_beyond(self):
        self.assertEqual(metrics.tail_rank(400), 380)  # p95, 20 beyond
        self.assertEqual(metrics.tail_rank(200), 190)  # p95, exactly 10 beyond
        self.assertEqual(metrics.tail_rank(100), 90)  # lowered to p90
        self.assertEqual(metrics.tail_rank(24), 14)
        self.assertEqual(metrics.tail_rank(11), 1)

    def test_no_tail_without_enough_samples(self):
        self.assertIsNone(metrics.tail_rank(10))
        self.assertIsNone(metrics.tail_rank(0))
        with self.assertRaises(ValueError):
            metrics.tail([1.0] * 10)

    def test_tail_value_and_count(self):
        values = [float(v) for v in range(400, 0, -1)]
        value, rank, count = metrics.tail(values)
        self.assertEqual((value, rank, count), (380.0, 380, 400))
        self.assertEqual(sum(v > value for v in values), 20)
        value, rank, count = metrics.tail(values[:50])
        self.assertEqual(count, 50)
        self.assertGreaterEqual(sum(v > value for v in values[:50]), 10)

    def test_median(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        self.assertEqual(metrics.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            metrics.median([])


class FailedFrac(unittest.TestCase):
    def test_arithmetic(self):
        self.assertEqual(metrics.failed_frac(0, 705), 0.0)
        self.assertEqual(metrics.failed_frac(3, 12), 0.25)
        self.assertEqual(metrics.failed_frac(7, 7), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            metrics.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            metrics.failed_frac(5, 4)
        with self.assertRaises(ValueError):
            metrics.failed_frac(-1, 4)


class Names(unittest.TestCase):
    def test_grammar(self):
        for good in ("lp.solve_ms", "lp.warm_offered.capacity-set", "setup_s",
                     "9lives", "a" * 64):
            self.assertEqual(metrics.name_errors([good], 1, "x"), [], good)
        for bad in ("", "_x", ".x", "a b", "a/b", "a:b", "a" * 65):
            self.assertTrue(metrics.name_errors([bad], 1, "x"), bad)

    def test_caps_and_duplicates(self):
        names = ["m%d" % i for i in range(129)]
        self.assertEqual(metrics.name_errors(names[:16], metrics.MAX_END_TO_END, "e"), [])
        self.assertTrue(metrics.name_errors(names[:17], metrics.MAX_END_TO_END, "e"))
        self.assertEqual(metrics.name_errors(names[:128], metrics.MAX_PER_LAYER, "p"), [])
        self.assertTrue(metrics.name_errors(names, metrics.MAX_PER_LAYER, "p"))
        self.assertTrue(metrics.name_errors([], metrics.MAX_PER_LAYER, "p"))
        self.assertTrue(metrics.name_errors(["a", "a"], 16, "e"))


def phase(**overrides):
    base = {
        "setup_s": [0.5, 0.4, 0.6],
        "design_ms": [float(v) for v in range(1, 41)],
        "ack_ms": [float(v) for v in range(1, 41)],
        "read_us": [10.0, 20.0, 30.0],
        "resume_s": [2.0],
        "timed_wall_s": 2.0,
        "designs": 40,
        "events": 43,
        "attempted": 44,
        "failed": 0,
        "cost_ratio_sum": 50.0,
        "cost_ratio_count": 40,
        "sinks_met": 30,
        "sinks_total": 40,
    }
    base.update(overrides)
    return base


class Spec(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_is_valid(self):
        self.assertEqual(metrics.spec_errors(self.spec), [])
        self.assertEqual(
            [w["name"] for w in self.spec["workloads"]],
            ["plan", "rounding", "serve-churn"],
        )
        for metric in self.spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")

    def test_every_metric_has_a_rule(self):
        e2e = metrics.end_to_end(phase())
        for metric in self.spec["end_to_end"]:
            self.assertIn(metric["name"], e2e)
        names = [m["name"] for m in self.spec["per_layer"]]
        values = metrics.per_layer(names, {}, {}, 0.95, 10, e2e, e2e)
        self.assertEqual(sorted(values), sorted(names))

    def test_end_to_end_definitions(self):
        e2e = metrics.end_to_end(phase())
        self.assertEqual(e2e["setup_s"][0], 0.5)
        self.assertEqual(e2e["designs_per_s"][0], 20.0)
        self.assertEqual(e2e["events_per_s"][0], 21.5)
        self.assertEqual(e2e["design_p50_ms"][0], 20.5)
        # 40 acks: rank min(38, 30) = 30, ten beyond.
        self.assertEqual(e2e["ack_p95_ms"][0], 30.0)
        self.assertIn("p75.0 of 40 acks, 10 beyond", e2e["ack_p95_ms"][1])
        self.assertEqual(e2e["cost_ratio"][0], 1.25)
        self.assertEqual(e2e["demand_met_frac"][0], 0.75)

    def test_per_layer_ratios_and_overhead(self):
        layers = {
            "lp.solve_ms": [1.0, 3.0],
            "lp.pivots": [100.0, 300.0],
            "lp.warm_offered.edge-fail": [4.0],
            "lp.warm_accepted.edge-fail": [3.0],
            "util.pool.serial_ms": [40.0],
            "util.pool.parallel_ms": [20.0],
            "util.pool.threads": [4.0],
        }
        untraced = metrics.end_to_end(phase())
        traced = metrics.end_to_end(phase(timed_wall_s=4.0))
        names = ["lp.us_per_pivot", "lp.warm_accept_ratio.edge-fail",
                 "lp.warm_accept_ratio.node-add", "util.pool.efficiency",
                 "lp.solve.self_ms", "obs.overhead.designs_per_s"]
        values = metrics.per_layer(names, layers, {"lp.solve": 6000}, 1.0, 3,
                                   untraced, traced)
        self.assertEqual(values["lp.us_per_pivot"], 10.0)
        self.assertEqual(values["lp.warm_accept_ratio.edge-fail"], 0.75)
        self.assertEqual(values["lp.warm_accept_ratio.node-add"], 0.0)
        self.assertEqual(values["util.pool.efficiency"], 0.5)
        self.assertEqual(values["lp.solve.self_ms"], 2.0)
        self.assertEqual(values["obs.overhead.designs_per_s"], -10.0)


def span(name, begin, end, tid=0):
    return [
        {"name": name, "ph": "B", "pid": 0, "tid": tid, "ts": begin},
        {"name": name, "ph": "E", "pid": 0, "tid": tid, "ts": end},
    ]


class Trace(unittest.TestCase):
    def test_self_time_and_coverage(self):
        events = []
        # Thread 0: a layer span holding a library span holding a layer span.
        events += [{"name": "layer:core.design_state.redesign", "ph": "B",
                    "pid": 0, "tid": 0, "ts": 100}]
        events += [{"name": "designer.lp", "ph": "B", "pid": 0, "tid": 0, "ts": 110}]
        events += span("layer:lp.solve", 120, 160)
        events += [{"name": "designer.lp", "ph": "E", "pid": 0, "tid": 0, "ts": 170}]
        events += [{"name": "layer:core.design_state.redesign", "ph": "E",
                    "pid": 0, "tid": 0, "ts": 200}]
        # Thread 1 overlaps thread 0 and then covers [250, 300).
        events += span("layer:core.rounding", 150, 300, tid=1)
        # Outside the window: not counted.
        events += span("layer:topo.generate", 10, 50)
        trace = {"traceEvents": events}
        self_us, coverage = metrics.layer_spans(trace, (100, 400))
        self.assertEqual(self_us["core.design_state.redesign"], 60)
        self.assertEqual(self_us["lp.solve"], 40)
        self.assertEqual(self_us["core.rounding"], 150)
        self.assertNotIn("topo.generate", self_us)
        self.assertNotIn("designer.lp", self_us)
        self.assertAlmostEqual(coverage, 200 / 300)


class Seeds(unittest.TestCase):
    """Two seeds give different inputs with the same workload shape."""

    @classmethod
    def setUpClass(cls):
        if not (ROOT / "src").is_dir():
            raise unittest.SkipTest("no sources to build omn_perfbench from")
        import run

        cls.binary = run.build(ROOT, ROOT / ".bench_build")

    def describe(self, workload, seed, directory):
        out = Path(directory) / ("%s-%d.json" % (workload, seed))
        subprocess.run(
            [str(self.binary), "--describe", "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", "0",
             "--out", str(out)],
            check=True,
        )
        return json.loads(out.read_text())

    def test_same_shape_different_inputs(self):
        with tempfile.TemporaryDirectory() as directory:
            for workload in ("plan", "rounding", "serve-churn"):
                one = self.describe(workload, 1, directory)
                two = self.describe(workload, 2, directory)
                again = self.describe(workload, 1, directory)
                self.assertEqual(one["shape"], two["shape"], workload)
                self.assertNotEqual(one["input_digest"], two["input_digest"], workload)
                self.assertEqual(one["input_digest"], again["input_digest"], workload)


if __name__ == "__main__":
    unittest.main()
