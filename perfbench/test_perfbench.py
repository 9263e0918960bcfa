#!/usr/bin/env python3
"""The benchmark's own tests, at a tiny scale (about a minute in all).

Run from the root of the repository:

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names is emitted with its
unit, that deterministic metrics repeat exactly across two runs, and
that the reference-digest check passes on a blessed file and fails on a
corrupted one.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "100000"

# Metrics that must repeat exactly for the same inputs.
DETERMINISTIC = {
    "0": ["cpi_err_max_pct", "cpi_err_mean_pct", "ci95_coverage"],
    "1": ["workload.arena_mib", "uarch.runahead_instrs", "core.esp_spec_instrs",
          "core.esp_windows", "core.esp_window_use", "core.replay_entries",
          "obs.trace_bytes_per_sim", "learn.skip_fraction", "learn.fallback_rate",
          "learn.rerun_full_runs"],
}


def run(*args):
    """Runs the benchmark; returns (exit code, parsed last stdout line or None)."""
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                       cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def bench(workload, trace, seed="7", *extra):
    code, result = run("--workload", workload, "--seed", seed, "--seconds", "0",
                       "--trace", trace, "--scale", SCALE, *extra)
    assert code == 0, f"{workload} --trace {trace} exited {code}"
    return result


class Perfbench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_smoke_emits_every_metric_with_its_unit(self):
        for w in self.spec["workloads"]:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                r = bench(w["name"], trace)
                self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"], (w["name"], trace))
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                want = {m["name"]: m["unit"] for m in self.spec[group]}
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want, (w["name"], trace))

    def test_deterministic_metrics_repeat_exactly(self):
        for w in ("sampled-matrix", "learned-matrix"):
            for trace, names in DETERMINISTIC.items():
                a, b = bench(w, trace)["metrics"], bench(w, trace)["metrics"]
                for n in names:
                    self.assertEqual(a[n]["value"], b[n]["value"], (w, n))

    def test_blessed_digests_pass_and_corrupted_ones_fail(self):
        with tempfile.TemporaryDirectory() as tmp:
            ref = os.path.join(tmp, "digests.txt")
            code, _ = run("--bless", "--scale", SCALE, "--seed", "7", "--reference", ref)
            self.assertEqual(code, 0)
            self.assertTrue(bench("exact-matrix", "0", "7", "--reference", ref)["correct"])
            with open(ref) as f:
                lines = f.read().splitlines()
            last = lines[-1].split()
            last[2] = format(int(last[2], 16) ^ 1, "016x")
            with open(ref, "w") as f:
                f.write("\n".join(lines[:-1] + [" ".join(last)]) + "\n")
            r = bench("exact-matrix", "0", "7", "--reference", ref)
            self.assertFalse(r["correct"])
            self.assertGreaterEqual(r["failed"], 1)

    def test_bad_arguments_exit_nonzero_without_a_result(self):
        code, result = run("--workload", "no-such-workload", "--seed", "1")
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
