"""Smoke tests of the benchmark at tiny size (a few ops per workload).

    python3 -m unittest discover -s perfbench -v
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_small(workload: str, trace: int, seed: int, ops: int):
    """bench.run() in this process, at exactly ``ops`` ops."""
    cls = WORKLOADS[workload]
    with mock.patch.object(cls, "min_ops", ops), mock.patch.object(cls, "chunk", ops), \
            mock.patch.object(cls, "trace_ops", ops):
        return bench.run(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                          "--trace", str(trace)])


def units(result) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class SmokeTest(unittest.TestCase):
    def test_workloads_match_spec(self):
        self.assertEqual(sorted(WORKLOADS), sorted(w["name"] for w in SPEC["workloads"]))
        for spec in SPEC["workloads"]:
            self.assertEqual(WORKLOADS[spec["name"]].why, spec["why"])

    def test_end_to_end_metrics_printed(self):
        names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines, info = run_small(workload, trace=0, seed=3, ops=3)
                self.assertEqual((result["attempted"], result["failed"]), (3, 0))
                self.assertTrue(result["correct"])
                self.assertEqual(units(result), names)
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertEqual(info["tail_percentile"], WORKLOADS[workload].tail_percentile)
                self.assertIn("0 failed / 3 attempted", "\n".join(lines))

    def test_per_layer_metrics_printed_and_counts_repeat(self):
        names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run_small(workload, trace=1, seed=4, ops=2)[0] for _ in range(2)]
                for result in runs:
                    self.assertTrue(result["correct"])
                    self.assertEqual(units(result), names)
                counts = [
                    {k: v["value"] for k, v in result["metrics"].items()
                     if v["unit"] not in ("s", "ratio")}
                    for result in runs
                ]
                self.assertEqual(counts[0], counts[1])

    def test_wrong_oracle_value_counts_as_failure(self):
        self.addCleanup(os.sched_setaffinity, 0, os.sched_getaffinity(0))
        cls = WORKLOADS["eval-grid"]
        out = io.StringIO()
        with mock.patch.object(oracle.Oracle, "value", lambda self, k, n: -1), \
                mock.patch.object(cls, "min_ops", 4), mock.patch.object(cls, "chunk", 4), \
                mock.patch.object(cls, "trace_ops", 4), contextlib.redirect_stdout(out):
            code = bench.main(["--workload", "eval-grid", "--seed", "5", "--seconds", "0",
                               "--trace", "0"])
        self.assertEqual(code, 1)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertEqual((result["attempted"], result["failed"]), (4, 4))
        self.assertFalse(result["correct"])
        self.assertIn("4 failed / 4 attempted", out.getvalue())


if __name__ == "__main__":
    unittest.main()
