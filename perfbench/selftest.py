"""Quick self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted, by the untraced
and the traced run of every workload, and that an injected wrong answer is
caught: it lowers solved_frac and counts as a failed op.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import unittest
from unittest import mock

import run

if not run.use_checkout_sources():
    raise SystemExit(f"selftest: no afkit sources under {run.SRC}")

import workloads  # noqa: E402 - needs the source path set above
from afkit import engine, formats  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SECONDS = 0.2
STAMP = {"seed": 1, "selftest": 1}


def measure(workload, traced: bool) -> dict:
    work = run.ROOT / ".perfbench" / f"selftest-{os.getpid()}"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return run.measure(workload, work, SECONDS, traced, STAMP)
    finally:
        shutil.rmtree(work, ignore_errors=True)


class MetricsEmitted(unittest.TestCase):
    def test_every_workload_emits_every_named_metric(self):
        self.assertEqual(
            {w["name"] for w in SPEC["workloads"]}, set(workloads.WORKLOADS)
        )
        for name, cls in workloads.WORKLOADS.items():
            for traced, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, traced=traced):
                    result = measure(cls(1, "tiny"), traced)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"}
                    )
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    named = {m["name"]: m["unit"] for m in SPEC[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, named)


class WrongAnswerCaught(unittest.TestCase):
    def test_injected_wrong_answer_lowers_solved_frac(self):
        honest = measure(workloads.ExactCommunity(1, "tiny"), traced=False)
        solve = engine.solve

        def lying_solve(af, task, budget=None):
            answer = solve(af, task, budget)
            if isinstance(answer, formats.Decision) and task.label == "DS-CO":
                return formats.Decision(not answer.accepted)
            return answer

        with mock.patch.object(engine, "solve", lying_solve):
            lying = measure(workloads.ExactCommunity(1, "tiny"), traced=False)
        self.assertTrue(honest["correct"])
        self.assertFalse(lying["correct"])
        self.assertGreater(lying["failed"], 0)
        self.assertLess(
            lying["metrics"]["solved_frac"]["value"], honest["metrics"]["solved_frac"]["value"]
        )


if __name__ == "__main__":
    unittest.main()
