"""Tests of the benchmark itself, at smoke scale (small m).

    python3 perfbench/selftest.py

Kept out of the repository's test suite on purpose: it times nothing, but
it starts a few dozen short CLI processes.
"""

from __future__ import annotations

import io
import json
import random
import sys
import unittest
from contextlib import redirect_stdout

import answers
import run
import traced
from make_reference import cross_check
from workloads import WORKLOADS, _irreducible, pass_order, reduction_poly

sys.path.insert(0, str(run.SRC))  # the in-process tests import the library


def quiet_measure(name: str, **kwargs) -> dict:
    with redirect_stdout(io.StringIO()):
        return run.measure(name, seed=3, seconds=0, smoke=True, **kwargs)


def corrupt_first_weight_count(proc: run.Process) -> run.Process:
    payload = json.loads(proc.stdout)
    first = min(payload["counts"], key=int)
    payload["counts"][first] += 1
    proc.stdout = json.dumps(payload)
    return proc


class SmokeTest(unittest.TestCase):
    def test_every_workload_passes_untraced_and_traced(self):
        for name in WORKLOADS:
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    result = quiet_measure(name, trace=trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    for value in result["metrics"].values():
                        self.assertIsInstance(value["value"], (int, float))

    def test_traced_answers_equal_cli_answers(self):
        api = traced.Api()
        for workload in WORKLOADS.values():
            for argv in workload.smoke:
                with self.subTest(argv=argv):
                    api.reset_caches()
                    got = traced.Stages(api, traced.Tracer(), seed=7).direct(argv)
                    cli = answers.extract(argv, run.run_cli(argv, timeout=60).stdout)
                    self.assertGreaterEqual(len(got), 2)
                    self.assertEqual(answers.compare(cli, got, partial=True), [])

    def test_traced_pass_reports_an_absent_function_without_failing(self):
        api = traced.Api()
        api.functions["weight_distribution"] = None
        argvs = WORKLOADS["verify-sweep"].smoke
        tracer, _, failures = traced.traced_pass(api, answers.load_reference(), list(argvs), seed=1)
        self.assertEqual(failures, [])
        self.assertIn("codes.weights (weight_distribution)", tracer.absent)
        self.assertNotIn("codes.weights", tracer.self_times())


class GateTest(unittest.TestCase):
    def test_weight_count_off_by_one_is_rejected_and_counted(self):
        argv = WORKLOADS["verify-sweep"].smoke[0]
        proc = corrupt_first_weight_count(run.run_cli(argv, timeout=60))
        self.assertNotEqual(answers.check(answers.load_reference(), argv, proc.exit, proc.stdout), [])

        def runner(a, timeout):
            proc = run.run_cli(a, timeout)
            return corrupt_first_weight_count(proc) if a == argv else proc

        result = quiet_measure("verify-sweep", trace=False, runner=runner)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertEqual(result["attempted"], 1 + run.SETUP_PER_PASS + len(WORKLOADS["verify-sweep"].smoke))

    def test_counterexample_reported_ok_is_rejected(self):
        argv = ("sweep", "--max-m", "3")
        payload = json.loads(run.run_cli(argv, timeout=60).stdout)
        (row,) = [r for r in payload["rows"] if (r["family"], r["m"]) == (2, 3)]
        row["ok"], payload["all_ok"] = True, True
        diffs = answers.check(answers.load_reference(), argv, 0, json.dumps(payload))
        self.assertTrue(any("exit" in d for d in diffs))
        self.assertTrue(any("/ok" in d for d in diffs))

    def test_added_output_fields_are_ignored(self):
        argv = WORKLOADS["verify-sweep"].smoke[0]
        proc = run.run_cli(argv, timeout=60)
        payload = json.loads(proc.stdout)
        payload["stats"] = {"weights_s": 0.1}
        self.assertEqual(answers.check(answers.load_reference(), argv, proc.exit, json.dumps(payload)), [])

    def test_reference_agrees_with_closed_forms(self):
        for key, entry in answers.load_reference().items():
            with self.subTest(key=key):
                self.assertEqual(cross_check(tuple(key.split()), entry["exit"], entry["answer"]), [])


class SeedTest(unittest.TestCase):
    def test_order_depends_only_on_seed(self):
        argvs = WORKLOADS["charsums-sumset"].full
        self.assertEqual(pass_order(argvs, random.Random(4)), pass_order(argvs, random.Random(4)))
        orders = {tuple(pass_order(argvs, random.Random(s))) for s in range(10)}
        self.assertGreater(len(orders), 1)

    def test_seed_zero_is_default_polynomial_others_irreducible(self):
        self.assertEqual(reduction_poly(8, 0), 0)
        polys = {reduction_poly(8, s) for s in range(1, 20)}
        self.assertGreater(len(polys), 1)
        for p in polys:
            self.assertEqual(p.bit_length(), 9)
            self.assertTrue(_irreducible(p, 8))


if __name__ == "__main__":
    unittest.main(verbosity=2)
