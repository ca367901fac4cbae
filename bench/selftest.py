"""Self-test of the benchmark: every workload at tiny size, in both modes.

    PYTHONPATH=src python3 -m unittest bench/selftest.py     # from the repository root

Checks that each run prints exactly the metrics BENCHMARK.json names, with
their units, and no failures; that the layer self times of a traced pass
add up to its wall time; that traced counts repeat exactly; that the
benchmark's closed forms agree with the library; and that the benchmark
exits non-zero without a result where the program is missing.
"""

from __future__ import annotations

import json
import math
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
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# counts that must repeat exactly between traced runs of the same inputs
REPEATED_COUNTS = ("estimation.gn_iters", "oracle.drift_evals", "core.fd_partials",
                   "rationality.verdicts", "core.moment_calls", "estimation.lstsq_calls")


def run_bench(workload, trace, cwd=ROOT, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                             "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkOutput(unittest.TestCase):
    def _result(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result["metrics"]

    def _check_names(self, metrics, spec_key):
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(metrics), set(expected))
        for name, entry in metrics.items():
            self.assertEqual(entry["unit"], expected[name], name)
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_end_to_end(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self._result(workload, 0)
                self._check_names(metrics, "end_to_end")
                for name, entry in metrics.items():
                    self.assertGreater(entry["value"], 0.0, name)

    def test_per_layer(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = self._result(workload, 1)
                self._check_names(first, "per_layer")
                value = {k: v["value"] for k, v in first.items()}
                attributed = sum(value[b] for b in tracer.SELF_BUCKETS)
                self.assertAlmostEqual(attributed + value["trace.unattributed_s"],
                                       value["trace.wall_s"], delta=1e-9)
                self.assertGreater(value["trace.wall_s"], 0.0)
                second = self._result(workload, 1)
                for name in REPEATED_COUNTS:
                    self.assertEqual(first[name]["value"], second[name]["value"], name)

    def test_missing_program(self):
        os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_tmp"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("kinked", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class ClosedForms(unittest.TestCase):
    def test_l0_closed_forms_match_library(self):
        import welfare_moments as wm
        surface = wm.surface_from_population(wm.L0, 4)
        for p0, y, dp in ((1.0, 2.0, 0.05), (0.95, 4.1, -0.07), (1.02, 3.8, 0.2)):
            pc = wm.PriceChange.scalar(p0, p0 + dp, y)
            dp = pc.scalar_delta()
            self.assertAlmostEqual(checks.l0_robust(p0, y, dp),
                                   wm.cv_moment_local(surface, 1, pc), delta=1e-14)
            lib = 0.5 * sum(wm.cv_constant_income_effect(
                lambda p, yy, a=a: 0.5 - p + a * yy, a, pc) for a in checks.L0_EFFECTS)
            self.assertAlmostEqual(checks.l0_exact_cv(p0, y, dp), lib, delta=1e-14)


if __name__ == "__main__":
    unittest.main()
