"""Self-test of the benchmark at its smallest sizes.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every workload completes with and without tracing, that
every metric named in BENCHMARK.json is printed with its unit, that
the goldens are what ``run_point`` and the co-run entry points produce
today, that a tampered golden fails the run, and that the command
fails cleanly where the program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"


def bench(*args, cwd: Path = ROOT, goldens: Path = None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--seed", "7", "--seconds", "0", "--profile", "small", *args]
    if goldens is not None:
        cmd += ["--goldens", str(goldens)]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True,
                          text=True, timeout=170)


def result_line(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        WORK.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(WORK, ignore_errors=True)

    def _check_metrics(self, doc: dict, declared: list) -> None:
        self.assertEqual(set(doc), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(doc["correct"])
        self.assertEqual(doc["failed"], 0)
        self.assertGreaterEqual(doc["attempted"], 1)
        for metric in declared:
            got = doc["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))
        self.assertEqual(set(doc["metrics"]),
                         {m["name"] for m in declared})

    def test_every_workload_end_to_end(self):
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--workload", workload["name"], "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                doc = result_line(proc)
                self._check_metrics(doc, self.spec["end_to_end"])
                for name, value in ((m, v["value"])
                                    for m, v in doc["metrics"].items()):
                    self.assertGreater(value, 0, name)
                self.assertIn("host nproc=", proc.stdout)
                self.assertIn("unvalidated against hardware", proc.stdout)

    def test_every_workload_traced(self):
        for workload in self.spec["workloads"]:
            with self.subTest(workload=workload["name"]):
                proc = bench("--workload", workload["name"], "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self._check_metrics(result_line(proc),
                                    self.spec["per_layer"])

    def test_goldens_match_the_public_entry_points(self):
        sys.path[:0] = [str(HERE), str(ROOT / "src")]
        import config
        import goldens
        os.environ["REPRO_TRACE_CACHE"] = str(WORK / "traces")
        os.environ.pop("REPRO_ENGINE", None)
        stored = json.loads((HERE / "goldens.json").read_text())
        fresh = goldens.record({"small": config.PROFILES["small"]})
        for key, entry in fresh.items():
            self.assertEqual(stored[key], entry, key)

    def test_tampered_golden_fails_the_run(self):
        stored = json.loads((HERE / "goldens.json").read_text())
        key = "sim:gemm:n8:t4:s32"
        stored[key]["baseline"]["cycles"] += 0.25
        tampered = WORK / "tampered.json"
        tampered.write_text(json.dumps(stored))
        proc = bench("--workload", "fig4-gemm", "--trace", "0",
                     goldens=tampered)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result_line(proc)["correct"])
        self.assertIn(key, proc.stderr)

    def test_fails_cleanly_without_the_program(self):
        bare = WORK / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench("--workload", "fig4-gemm", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
