"""The benchmark's own tests.

    python3 -m unittest perfbench/test_bench.py        (from the checkout root)

They build spatch and perfbench-gen like a benchmark run does, then check
that two seeds give different inputs of comparable size, and that a
tiny-size smoke run of every workload passes its oracle and reconciles
its traced replay with the end-to-end report.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)
SMOKE_SCALE = 0.02


class BenchTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bin_dir = run.build(ROOT, ["gen"])
        work_root = os.path.join(ROOT, ".bench_work")
        os.makedirs(work_root, exist_ok=True)
        cls.tmp = tempfile.mkdtemp(prefix="test-", dir=work_root)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def gen(self, workload, seed, scale=1.0):
        work = os.path.join(self.tmp, f"{workload}-{seed}-{scale}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        return work, run.generate(self.bin_dir, workload, seed, scale, work)

    def test_seeds_give_different_inputs_of_comparable_size(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                (_, a), (_, b) = self.gen(workload, 1), self.gen(workload, 2)
                self.assertNotEqual(a["input_digest"], b["input_digest"])
                self.assertEqual(a["files"], b["files"])
                self.assertLess(abs(a["bytes"] - b["bytes"]) / a["bytes"], 0.05)
                self.assertLess(abs(a["expected"] - b["expected"]) / a["expected"], 0.1)
                _, again = self.gen(workload, 1)
                self.assertEqual(a, again, "same seed, same inputs")

    def test_scan_meets_its_size_floor(self):
        _, m = self.gen("scan_rules50", 7)
        self.assertGreaterEqual(m["bytes"], 16_000_000)

    def test_oracle_rejects_a_wrong_diff(self):
        work, _ = self.gen("apply_dense", 5, SMOKE_SCALE)
        expected = run.load_expected(work)
        name = expected[0][0]
        diff = os.path.join(work, "bad.diff")
        # One site removed, two replacements added: never one per site.
        with open(diff, "w") as f:
            f.write(f"--- a/{name}\n+++ b/{name}\n@@ -1 +1,2 @@\n"
                    "-    old_api(n);\n+    new_api(n);\n+    new_api(n);\n")
        self.assertIn(name, run.apply_failures(diff, expected))

    def test_smoke_run_of_every_workload_passes_its_oracle(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = subprocess.run(
                    [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                     "--workload", workload, "--seed", "11", "--seconds", "1",
                     "--trace", "1", "--scale", str(SMOKE_SCALE)],
                    cwd=ROOT, stdout=subprocess.PIPE, check=True)
                result = json.loads(out.stdout.decode().splitlines()[-1])
                self.assertTrue(result["correct"], result)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(set(result["metrics"]), set(run.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
