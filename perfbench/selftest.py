#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (rows, k and memory x0.01).

Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit on
every workload, that a corrupted query result and drifting work counters are
caught, that the traced pass writes its span file, and that the benchmark
refuses to run without the library sources.
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join(HERE, "run.py")
SCALE = "0.01"
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def run_bench(workload, trace, extra=(), cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    out = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                         cwd=cwd, timeout=600)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return out.returncode, result, out.stderr


class MetricsEmitted(unittest.TestCase):
    def check(self, trace, key):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        for workload in [w["name"] for w in BENCHMARK["workloads"]]:
            with self.subTest(workload=workload, trace=trace):
                code, result, err = run_bench(workload, trace)
                self.assertEqual(code, 0, err)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                emitted = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                self.assertEqual(emitted, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")


class CorruptionCaught(unittest.TestCase):
    def test_corrupted_result_fails_the_run(self):
        code, result, _ = run_bench("uniform_k100k", 0,
                                    ["--corrupt-op", "optimized"])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        ok = result["metrics"]["ok_query_ratio"]["value"]
        self.assertLess(ok, 1.0)


class CounterDriftCaught(unittest.TestCase):
    def test_counters_differing_from_an_earlier_run_fail_the_run(self):
        seed = SEED + 1
        pattern = os.path.join(ROOT, ".bench_work", "counters",
                               "uniform_k100k-seed%d-scale%s-*.json"
                               % (seed, float(SCALE)))
        for old in glob.glob(pattern):
            os.remove(old)
        code, result, _ = run_bench("uniform_k100k", 0, ["--seed", str(seed)])
        self.assertEqual(code, 0)
        [path] = glob.glob(pattern)
        with open(path) as f:
            earlier = json.load(f)
        earlier["histogram"]["rows_spilled"] += 1
        with open(path, "w") as f:
            json.dump(earlier, f)
        code, result, err = run_bench("uniform_k100k", 0,
                                      ["--seed", str(seed)])
        os.remove(path)
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertIn("histogram work counters drifted", err)


class SpanFile(unittest.TestCase):
    def test_traced_pass_writes_spans(self):
        path = os.path.join(ROOT, ".bench_work", "spans",
                            "fal_k500k-seed%d.jsonl" % SEED)
        if os.path.exists(path):
            os.remove(path)
        code, _, err = run_bench("fal_k500k", 1)
        self.assertEqual(code, 0, err)
        with open(path) as f:
            spans = [json.loads(line) for line in f]
        names = {s["name"].split(".")[0] for s in spans}
        for layer in ["query", "gen", "topk", "histogram", "row", "common",
                      "sort", "io", "layer"]:
            self.assertIn(layer, names)
        ids = {(s["trace"], s["id"]) for s in spans}
        for s in spans:
            self.assertLessEqual(s["start_ns"], s["end_ns"])
            if s["parent"]:
                self.assertIn((s["trace"], s["parent"]), ids)


class NoSources(unittest.TestCase):
    def test_refuses_without_library_sources(self):
        work = os.path.join(ROOT, ".bench_work")
        os.makedirs(work, exist_ok=True)
        empty = tempfile.mkdtemp(dir=work)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), empty)
            shutil.copytree(HERE, os.path.join(empty, "perfbench"))
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   "uniform_k100k", "--seed", "1", "--seconds", "1",
                   "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 cwd=empty, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")
        finally:
            shutil.rmtree(empty)


if __name__ == "__main__":
    unittest.main()
