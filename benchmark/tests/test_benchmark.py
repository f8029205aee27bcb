"""Self-tests for the benchmark.

Run from the repository root:

    python3 benchmark/tests/test_benchmark.py

They run the benchmark exactly as BENCHMARK.json says, on every workload,
with the seed used while tuning and with a held-out seed, and check the
result lines against BENCHMARK.json. A full pass takes several minutes.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TUNING_SEED = 1
# Never used while the benchmark was sized or tuned.
HELD_OUT_SEED = 90210
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def run(workload, seed, trace, cwd=ROOT, env=None):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=900)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, f"no output; stderr:\n{proc.stderr}"
    return json.loads(lines[-1])


class Spec(unittest.TestCase):
    def test_keys_and_limits(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertLessEqual(SPEC_PATH.stat().st_size, 64 * 1024)
        self.assertTrue(1 <= len(SPEC["paths"]) <= 16)
        for p in SPEC["paths"]:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        self.assertTrue(len(SPEC["command"]) <= 32)
        for arg in SPEC["command"]:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertIsInstance(SPEC["run_seconds"], int)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)

    def test_names_follow_the_grammar(self):
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= len(SPEC["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(SPEC["per_layer"]) <= 128)
        names = []
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])
            names.append(w["name"])
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is used twice")

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m for m in SPEC["end_to_end"]}
        setup = bounds["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


class Runs(unittest.TestCase):
    """Every workload, on the tuning seed and on the held-out seed."""

    digests = {}

    def check_untraced(self, workload, seed):
        proc = run(workload, seed, 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        r = result(proc)
        self.assertEqual(list(r), ["correct", "attempted", "failed", "metrics"])
        self.assertIs(r["correct"], True, proc.stderr)
        self.assertEqual(r["failed"], 0)
        self.assertGreaterEqual(r["attempted"], 1)
        # Every named end-to-end metric, with its unit, never 0.
        self.assertEqual([(k, v["unit"]) for k, v in r["metrics"].items()], E2E)
        for k, v in r["metrics"].items():
            self.assertTrue(math.isfinite(v["value"]) and v["value"] > 0, (k, v))
        # Each timing percentile has at least ten samples beyond it. The
        # p99 is held to that on daemon_session, whose client-observed
        # latencies are what the percentiles are for; paper_suite's and
        # served_chip's ops are too long for a thousand in one run, so
        # their p99 is the slowest few ops (see NOTES.md).
        m = re.search(r"(\d+) op samples; p99 has (\d+) samples beyond it", proc.stderr)
        self.assertIsNotNone(m, proc.stderr)
        samples, beyond_p99 = int(m.group(1)), int(m.group(2))
        self.assertGreaterEqual(samples - math.ceil(samples / 2), 10)
        if workload == "daemon_session":
            self.assertGreaterEqual(beyond_p99, 10, proc.stderr)
        d = re.search(r"output digest ([0-9a-f]{8})", proc.stderr)
        self.assertIsNotNone(d, proc.stderr)
        return d.group(1)

    def test_untraced_runs(self):
        for seed in (TUNING_SEED, HELD_OUT_SEED):
            for workload in WORKLOADS:
                with self.subTest(workload=workload, seed=seed):
                    self.digests[(workload, seed)] = self.check_untraced(workload, seed)
        # paper_suite runs the paper's fixed plans: its output is seed-free.
        self.assertEqual(
            self.digests[("paper_suite", TUNING_SEED)],
            self.digests[("paper_suite", HELD_OUT_SEED)],
        )

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, TUNING_SEED, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                r = result(proc)
                self.assertIs(r["correct"], True, proc.stderr)
                self.assertEqual([(k, v["unit"]) for k, v in r["metrics"].items()], PER_LAYER)
                self.assertEqual(r["metrics"]["check.ops_failed"]["value"], 0)
                self.assertGreater(r["metrics"]["check.ops"]["value"], 0)
                self.assertGreater(r["metrics"]["trace.spans"]["value"], 0)


class BareDirectory(unittest.TestCase):
    def test_fails_without_the_repository(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "benchmark" / "target"))
        bare = target / "bare-checkout"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(SPEC_PATH, bare / "BENCHMARK.json")
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("target"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = run(WORKLOADS[0], TUNING_SEED, 0, cwd=bare, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    sys.exit(unittest.main())
