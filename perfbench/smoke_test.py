"""Smoke test of the benchmark itself, at the smallest size (one pass).

    python3 perfbench/smoke_test.py

Checks that every workload runs clean in both modes and prints every
metric ``BENCHMARK.json`` names with its unit, that a corrupted reference
is caught as failed operations, and that the benchmark refuses to run
without the package sources.  Takes about three minutes on two CPUs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def setUp(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def test_every_workload_prints_every_metric(self):
        for workload in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    res = result_of(bench("--workload", workload["name"], "--seed", "0",
                                          "--trace", str(trace)))
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in res["metrics"].items()},
                        {d["name"]: d["unit"] for d in declared})

    def test_corrupted_reference_counts_as_failed(self):
        ref = json.loads((HERE / "reference.json").read_text())
        gaps = ref["oracle-table1"]["any"]["log_concave_subquadratic"]["gaps"]
        gaps[0] *= 1.0 + 1e-6
        bad = self.tmp / "reference.json"
        bad.write_text(json.dumps(ref))
        res = result_of(bench("--workload", "oracle-table1", "--seed", "0",
                              "--trace", "0", "--reference", str(bad)))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"] / res["attempted"], 0.0)

    def test_refuses_to_run_without_sources(self):
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        shutil.copytree(HERE, self.tmp / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "sampler-chains", "--seed", "0", "--trace", "0",
                     cwd=self.tmp, script=self.tmp / HERE.name / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
