"""Tests of the benchmark itself.

Run from the root of a graphreg checkout:

    python3 -m unittest perfbench/test_perfbench.py

The traced-run tests run every workload once with tracing (about three
minutes on two cores).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import Outcome  # noqa: E402

# every metric the benchmark is specified to report, with its unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    "cli.import_s", "cli.self_s", "cli.commands", "cli.report_bytes",
    "expressions.self_s", "expressions.evaluate.calls",
    "expressions.parse_expression.calls",
    "symbols.self_s", "symbols.detect_point.calls",
    "symbols.detect_point.inconclusive", "symbols.hat_extension.calls",
    "symbols.readback_failed",
    "matrix_symbols.self_s", "matrix_symbols.entry_profile.calls",
    "algebras.self_s", "algebras.right_mult_maps.calls",
    "modules.self_s", "modules.regularity.M3.s", "modules.regularity.M4.s",
    "modules.regularity.M5.s", "modules.regularity.M6.s",
    "modules.regularity.M7.s", "modules.orthogonal_complement.calls",
    "modules.svd.calls", "modules.svd.max_rows", "modules.svd.work",
    "transforms.self_s", "transforms.calls", "transforms.ab_axioms_check.calls",
    "transforms.axiom_checks_per_triple",
    "toeplitz.self_s", "toeplitz.fejer_riesz.calls", "toeplitz.toeplitz_aab.s",
    "toeplitz.interior_residuals.s", "toeplitz.dense_bytes",
    "experiments.self_s", "experiments.build_pair.s",
    "experiments.density_defect.K8.s", "experiments.density_defect.K16.s",
    "experiments.density_defect.K32.s",
    "experiments.weyl_relations_check.M512.s",
    "experiments.weyl_relations_check.M1024.s",
    "experiments.weyl_limits_check.s", "experiments.dense_bytes",
    "experiments.resolvent_affiliation_check.s",
    *(f"{layer}.failed" for layer in (
        "cli", "expressions", "symbols", "matrix_symbols", "algebras",
        "modules", "transforms", "toeplitz", "experiments")),
    "trace_overhead",
]

# metrics that must be above zero in the traced run of each workload, so
# that the functions behind them are reached where they should be
REACHED = {
    "quick-cli": [
        "cli.import_s", "cli.self_s", "cli.commands", "cli.report_bytes",
        "expressions.self_s", "expressions.evaluate.calls",
        "expressions.parse_expression.calls", "symbols.self_s",
        "symbols.detect_point.calls", "symbols.hat_extension.calls",
        "symbols.readback_failed", "symbols.failed",
        "matrix_symbols.entry_profile.calls", "transforms.calls",
        "toeplitz.fejer_riesz.calls", "toeplitz.dense_bytes",
        "experiments.resolvent_affiliation_check.s", "trace_overhead"],
    "experiments": [
        "cli.import_s", "cli.commands", "cli.report_bytes",
        "experiments.self_s", "experiments.build_pair.s",
        "experiments.density_defect.K8.s", "experiments.density_defect.K16.s",
        "experiments.density_defect.K32.s",
        "experiments.weyl_relations_check.M512.s",
        "experiments.weyl_relations_check.M1024.s",
        "experiments.weyl_limits_check.s", "experiments.dense_bytes",
        "trace_overhead"],
    "library-sweep": [
        "expressions.self_s", "expressions.evaluate.calls",
        "expressions.parse_expression.calls", "symbols.self_s",
        "symbols.detect_point.calls", "symbols.hat_extension.calls",
        "matrix_symbols.self_s", "matrix_symbols.entry_profile.calls",
        "algebras.self_s", "algebras.right_mult_maps.calls", "modules.self_s",
        *(f"modules.regularity.M{n}.s" for n in range(3, 8)),
        "modules.orthogonal_complement.calls", "modules.svd.calls",
        "modules.svd.max_rows", "modules.svd.work", "transforms.self_s",
        "transforms.calls", "transforms.ab_axioms_check.calls",
        "transforms.axiom_checks_per_triple", "toeplitz.self_s",
        "toeplitz.fejer_riesz.calls", "toeplitz.toeplitz_aab.s",
        "toeplitz.interior_residuals.s", "toeplitz.dense_bytes",
        "experiments.resolvent_affiliation_check.s", "trace_overhead"],
}


def run_bench(workload, trace, seed=11, seconds=1, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_every_metric_with_its_unit(self):
        from spans import PER_LAYER as traced

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         END_TO_END)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(traced))
        self.assertEqual(sorted(traced), sorted(PER_LAYER))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         traced)


class Checks(unittest.TestCase):
    def test_compare_flags_changed_values(self):
        ref = {"verdict": "Affiliated", "rank": 9, "ok": True, "r": 0.5,
               "res": {"$max": 1e-9}}
        good = {"verdict": "Affiliated", "rank": 9, "ok": True,
                "r": 0.5 + 1e-12, "res": 3e-16}
        self.assertEqual(checks.compare(good, ref), [])
        for key, bad in (("verdict", "AssociatedOnly"), ("rank", 8),
                         ("ok", 1), ("r", 0.5001), ("res", 1e-6)):
            self.assertTrue(checks.compare({**good, key: bad}, ref), key)
        self.assertEqual(checks.nonfinite({"a": [1.0, float("nan")]}), ["a.1"])

    def test_known_defect_fails_without_making_the_run_incorrect(self):
        spec = {"known_defect": {"code": 1, "stderr": "not a declared puncture",
                                 "reason": ""},
                "fields": {"results.regular": True}}
        known = Outcome("j", 1, None, "input error: piece break at 0.0 is "
                        "not a declared puncture")
        self.assertEqual(checks.check(known, spec, ROOT), (False, True, []))
        other = Outcome("j", 3, None, "internal error")
        self.assertEqual(checks.check(other, spec, ROOT)[:2], (False, False))
        fixed = Outcome("j", 0, b'{"results": {"regular": true}}')
        self.assertEqual(checks.check(fixed, spec, ROOT), (True, False, []))


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("quick-cli", 0, cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class TracedRuns(unittest.TestCase):
    """Each workload once with tracing: reports byte-identical to the
    untraced ones (run.py fails a job otherwise) and every layer reached."""

    def check_workload(self, workload):
        proc = run_bench(workload, 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertTrue(result["correct"], proc.stdout)
        with open(os.path.join(ROOT, ".perfbench", "results",
                               f"{workload}-seed11-trace1.json"),
                  encoding="utf-8") as fh:
            details = json.load(fh)
        self.assertTrue(all(f["known_defect"] for f in details["failures"]),
                        details["failures"])
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(PER_LAYER))
        for name in REACHED[workload]:
            self.assertGreater(metrics[name]["value"], 0, name)
        return metrics

    def test_quick_cli(self):
        metrics = self.check_workload("quick-cli")
        # the two emitted one_over_x symbols that do not read back
        self.assertEqual(metrics["symbols.readback_failed"]["value"], 2)

    def test_experiments(self):
        self.check_workload("experiments")

    def test_library_sweep(self):
        metrics = self.check_workload("library-sweep")
        self.assertEqual(metrics["transforms.axiom_checks_per_triple"]["value"], 2.5)


if __name__ == "__main__":
    unittest.main()
