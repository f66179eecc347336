#!/usr/bin/env python3
"""Tests of the benchmark itself, at the seconds-long tiny size.

    python3 perfbench/test_bench.py      (from the root of the checkout)

- every workload passes its checks, prints every BENCHMARK.json metric
  with its unit and reports ops_failed = 0, untraced and traced;
- a tampered recorded digest marks the run failed;
- a malformed CSV row, salvaged by the importer, raises ops_failed;
- in a directory holding only BENCHMARK.json and perfbench/ the command
  fails without printing a result;
- no process the benchmark started outlives a run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("paper", "scale", "replay", "reanalyze")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc, result


def helpers():
    """Reference helpers still running, from any checkout."""
    found = []
    for pid in os.listdir("/proc"):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if b"--reference-helper" in f.read():
                    found.append(pid)
        except OSError:
            pass
    return found


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class Smoke(unittest.TestCase):
    def check(self, trace, section):
        expected = {m["name"]: m["unit"] for m in spec()[section]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc, result = bench("--workload", w, "--trace", str(trace))
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertIn("ops_failed 0", proc.stdout)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                self.assertEqual(helpers(), [])

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class MustFail(unittest.TestCase):
    def test_tampered_digest(self):
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(ROOT, "perfbench", "expected.json")) as f:
            expected = json.load(f)
        expected["tiny"]["tables_md5"] = "0" * 32
        tampered = os.path.join(OUT, f"tampered-{os.getpid()}.json")
        with open(tampered, "w") as f:
            json.dump(expected, f)
        try:
            proc, result = bench("--workload", "paper", "--expected", tampered)
        finally:
            os.remove(tampered)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("tables_md5", proc.stdout)

    def test_malformed_row(self):
        proc, result = bench("--workload", "replay", "--bad-rows", "2")
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("bad_rows = 0", proc.stdout)

    def test_bare_directory(self):
        bare = os.path.join(OUT, f"bare-{os.getpid()}")
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("out"))
            proc, result = bench("--workload", "paper", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
