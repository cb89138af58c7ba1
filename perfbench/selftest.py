"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

They check the statistics on fixed inputs, that a corrupted expected value
or a raising op shows up as a failed op, that a seed fixes the inputs, that
two traced passes count exactly the same calls, and that BENCHMARK.json
lists the metrics the benchmark prints.  A few of them start passes in fresh
interpreters, like a run does.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import child  # noqa: E402
import ops  # noqa: E402
import summary  # noqa: E402


class Statistics(unittest.TestCase):
    def test_fastest_per_op(self):
        self.assertEqual(summary.fastest_per_op([[3.0, 1.0, 2.0], [2.0, 5.0, 1.0]]), [2.0, 1.0, 1.0])
        with self.assertRaises(ValueError):
            summary.fastest_per_op([[1.0, 2.0], [1.0]])

    def test_percentile(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertAlmostEqual(summary.percentile(values, 0.5), 5.5)
        self.assertEqual(summary.percentile(values, 0.0), 1.0)
        self.assertEqual(summary.percentile(values, 1.0), 10.0)
        self.assertEqual(summary.percentile([4.0], 0.9), 4.0)
        # n = 9, q = 0.9: the weights are Beta(9, 1) masses, whose CDF is x**9
        nine = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0]
        exact = sum(((i / 9) ** 9 - ((i - 1) / 9) ** 9) * x for i, x in enumerate(nine, start=1))
        self.assertLess(abs(summary.percentile(nine, 0.9) / exact - 1), 1e-6)
        # one op crossing a gap of 1.0 at the 90th percentile moves a single
        # order statistic by the whole gap, the estimate by a fraction of it
        low = [1.0] * 90 + [2.0] * 10
        self.assertLess(abs(summary.percentile(low + [2.0], 0.9) - summary.percentile(low + [1.0], 0.9)), 0.2)

    def test_end_to_end(self):
        passes = [[0.001, 0.004, 0.010, 0.002], [0.002, 0.003, 0.020, 0.001]]
        fastest = summary.fastest_per_op(passes)
        self.assertEqual(fastest, [0.001, 0.003, 0.010, 0.001])
        m = summary.end_to_end(fastest, [0.25], [2048, 3072])
        self.assertEqual(m["setup_s"], 0.25)
        self.assertAlmostEqual(m["ops_per_s"], 4 / 0.015)
        self.assertAlmostEqual(m["op_p50_ms"], 1000 * summary.percentile(fastest, 0.5))
        self.assertAlmostEqual(m["op_p90_ms"], 1000 * summary.percentile(fastest, 0.9))
        self.assertEqual(m["peak_rss_mb"], 3.0)

    def test_scaled_fastest(self):
        nominal = summary.COMPUTE_REFERENCE_S
        times = [[1.0, 2.0, 3.0], [2.0, 1.0, 6.0]]
        # slower of the two samples around each op, per pass: [2n, 2n, n] and
        # [n, 4n, 4n]; fastest over the passes: [n, 2n, n]
        refs = [[nominal, 2 * nominal, nominal, nominal], [nominal, nominal, 4 * nominal, nominal]]
        scaled, factor = summary.scaled_fastest(times, refs, nominal)
        self.assertEqual(scaled, [1.0, 0.5, 3.0])
        self.assertAlmostEqual(factor, nominal / summary.percentile([nominal, 2 * nominal, nominal], 0.5))

    def test_merge_and_hit_ratio(self):
        a = {"self_s": {"trees": 1.0}, "counts": {"trees.tree": 2}, "sums": {}, "inclusive_s": {},
             "caches": {"m": [3, 1]}, "spans": 4}
        merged = summary.merge_summaries([a, a])
        self.assertEqual(merged["counts"], {"trees.tree": 4})
        self.assertEqual(merged["caches"], {"m": [6, 2]})
        self.assertEqual(summary.hit_ratio(*merged["caches"]["m"]), 0.75)
        self.assertEqual(summary.hit_ratio(0, 0), 0.0)


def _corrupted(path: list, value):
    expected = copy.deepcopy(ops.load_expected())
    target = expected
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return expected


class Correctness(unittest.TestCase):
    def test_clean_passes_have_no_failures(self):
        for workload in ("text-models",):
            out = child.run_pass(ops.build(workload, 1))
            self.assertEqual(out["ok"].count(False), 0, out["errors"])

    def test_corrupted_expected_value_fails_an_op(self):
        cases = {
            "class-tables": (["class_texts", 2, "text"], "a_3"),
            "cycle-products": (["completed_cycles", 3], "C[4]"),
            "text-models": (["class_texts", 0, "latex_sha256"], "0" * 64),
        }
        for workload, (path, value) in cases.items():
            with mock.patch.object(ops, "load_expected", return_value=_corrupted(path, value)):
                op_list = ops.build(workload, 1)
            out = child.run_pass(op_list)
            self.assertEqual(out["ok"].count(False), 1, workload)
            out.update(setups=[0.1], setup_segment=[0], setup_refs=[summary.STARTUP_REFERENCE_S] * 2,
                       wall_s=1.0, names=[op.name for op in op_list])
            with open(run.OUT / "selftest-stderr.log", "ab") as log:
                runner = run.Runner(workload, 1, 1, False, log)
                result, record = run.aggregate(runner, [out], [False])
            self.assertEqual((result["attempted"], result["failed"]), (len(op_list), 1))
            self.assertGreater(record["fail_ratio"], 0)

    def test_fail_ratio_counts_corrupted_cli_output(self):
        calls = ops.cli_calls()[:2]
        calls[1] = dict(calls[1], stdout=calls[1]["stdout"] + "x")
        with open(run.OUT / "selftest-stderr.log", "ab") as log, \
                mock.patch.object(ops, "cli_calls", return_value=calls):
            runner = run.Runner("cli-calls", 1, 1, False, log)
            passes, kinds = [runner.cli_pass(False)], [False]
            result, record = run.aggregate(runner, passes, kinds)
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertFalse(result["correct"])
        self.assertEqual(record["fail_ratio"], 0.5)

    def test_raising_op_is_a_failed_op(self):
        def boom():
            raise ZeroDivisionError("op failed")

        op_list = [ops.Op("ok", lambda: 1, lambda r: r == 1), ops.Op("raises", boom, lambda r: True),
                   ops.Op("check raises", lambda: 1, lambda r: 1 / 0)]
        out = child.run_pass(op_list)
        self.assertEqual(out["ok"], [True, False, False])
        self.assertEqual(len(out["times"]), 3)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(ops.hurwitz_inputs(7), ops.hurwitz_inputs(7))
        self.assertNotEqual(ops.hurwitz_inputs(7), ops.hurwitz_inputs(8))
        self.assertEqual([op.name for op in ops.build("text-models", 7)],
                         [op.name for op in ops.build("text-models", 7)])

    def test_traced_counts_repeat_across_processes(self):
        with open(run.OUT / "selftest-stderr.log", "ab") as log:
            runner = run.Runner("text-models", 5, 1, True, log)
            first, second = runner.in_process_pass(True), runner.in_process_pass(True)
        self.assertEqual(first["trace"]["counts"], second["trace"]["counts"])
        self.assertEqual(first["trace"]["sums"], second["trace"]["sums"])
        self.assertEqual(first["trace"]["caches"], second["trace"]["caches"])
        self.assertGreater(first["trace"]["counts"]["local_models.hurwitz_coordinates"], 0)


class Contract(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         summary.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         summary.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(ops.WORKLOADS))

    def test_per_layer_names(self):
        trace = {"self_s": {layer: 0.0 for layer in ("trees", "classes", "exact", "combinatorics",
                                                      "cycles", "local_models", "grammar")},
                 "counts": {}, "sums": {}, "inclusive_s": {},
                 "caches": {name: [0, 0] for name in ("trees.encoding_hit_ratio", "classes.memo_hit_ratio",
                                                      "combinatorics.partitions_of_hit_ratio")}}
        layer = summary.per_layer([trace], 1.0, [(0.01, 0.08)], 0.5, 50.0, 100.0)
        self.assertEqual(set(layer), set(summary.PER_LAYER))
        self.assertEqual(layer["trace.overhead_ratio"], 0.5)
        self.assertAlmostEqual(layer["cli.import_ms"], 40.0)


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    unittest.main()
