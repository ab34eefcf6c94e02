"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from itertools import islice

import checks
import gen
import run
from tracer import Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _first_ops(workload: str, seed: int, n: int) -> list[dict]:
    return [op for ops in islice(gen.rounds(workload, seed), n) for op in ops]


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in gen.WORKLOADS:
            self.assertEqual(_first_ops(workload, 7, 3), _first_ops(workload, 7, 3))
            self.assertNotEqual(_first_ops(workload, 7, 3), _first_ops(workload, 8, 3))

    def test_replay_finds_the_same_op(self):
        op = _first_ops("roots", 3, 2)[30]
        self.assertEqual(gen.op_by_index("roots", 3, 30), op)


class FailureTest(unittest.TestCase):
    def test_scan_exhausted_is_a_failed_op_and_the_run_continues(self):
        failing = {"kind": "call", "function": "bessel_zeros", "args": [15, 10], "index": 0, "round": 0}
        passing = {"kind": "call", "function": "bessel_zeros", "args": [1, 3], "index": 1, "round": 0}
        runner = run.RootsRunner()
        try:
            records, errors = run.run_rounds(iter([[failing, passing]]), "roots", 0, 0.0, runner.call,
                                             checks.load_schemas(run.ROOT))
        finally:
            runner.close()
        self.assertEqual([r["ok"] for r in records], [False, True])
        self.assertIn("ScanExhausted", records[0]["reason"])
        self.assertFalse(records[0]["silent"])
        self.assertTrue(errors)

    def test_without_program_exits_nonzero_and_prints_no_result(self):
        bare = run.RESULTS / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                                  text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class KnownDefectTest(unittest.TestCase):
    def test_defects_run_through_the_checks_and_stay_out_of_the_timed_ops(self):
        self.assertEqual(run.defects("roots", 0, checks.load_schemas(run.ROOT)), 0)
        records = json.loads((run.RESULTS / "roots-defects.json").read_text())
        self.assertEqual([r["inputs"]["args"] for r in records], [d["args"] for d in gen.KNOWN_DEFECTS["roots"]])
        timed = [op["args"] for seed in (1, 2) for op in _first_ops("roots", seed, 4)]
        timed += [op["argv"] for seed in (1, 2) for op in _first_ops("sweep", seed, 2)]
        for op in gen.known_defects("roots") + gen.known_defects("sweep"):
            self.assertNotIn(op.get("args", op.get("argv")), timed)


class PlantedHitTest(unittest.TestCase):
    def test_every_round_plants_hits_and_a_missed_hit_fails(self):
        schemas = checks.load_schemas(run.ROOT)
        ops = _first_ops("roots", 4, 1)
        hits = {f: [op for op in ops if op["function"] == f and "expect" in op]
                for f in ("zero_in_spectrum", "exclusion_check")}
        self.assertEqual({f: len(h) for f, h in hits.items()},
                         {"zero_in_spectrum": len(gen.SPECTRUM_HITS), "exclusion_check": 1})
        # The right answers come from the planted roots, not from the program.
        for op in hits["zero_in_spectrum"]:
            k2, theta, _ = op["args"]
            kind, l = op["expect"]["kind"], op["expect"]["l"]
            root = math.sqrt(k2 / theta if kind == "neumann" else k2)
            self.assertTrue(checks.check_call(op, {"result": [True, [[kind, l, root]]]}, schemas, 4)["ok"], op)
            self.assertFalse(checks.check_call(op, {"result": [False, []]}, schemas, 4)["ok"])
        for op in hits["exclusion_check"]:
            k2 = op["args"][0]
            self.assertTrue(checks.check_call(op, {"result": [False, k2]}, schemas, 4)["ok"], op)
            self.assertFalse(checks.check_call(op, {"result": [True, k2]}, schemas, 4)["ok"])


class MetricNamesTest(unittest.TestCase):
    def test_every_benchmark_metric_is_emitted(self):
        records = [{"ok": True, "wall_s": 1.0, "cpu_s": 1.0, "rows": 3, "maxrss_kb": 1024}]
        e2e = run.end_to_end("sweep", records, [1e-16], [0.2], 1024)
        self.assertEqual(set(e2e), {m["name"] for m in BENCHMARK["end_to_end"]})
        layers = run.per_layer(Tracer(), 1, 0.0, 0.0)
        self.assertEqual(set(layers), {m["name"] for m in BENCHMARK["per_layer"]})
        for spec in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertEqual((e2e | layers)[spec["name"]]["unit"], spec["unit"])
        self.assertEqual({w["name"] for w in BENCHMARK["workloads"]}, set(gen.WORKLOADS))


class TracerTest(unittest.TestCase):
    def test_tracer_survives_a_missing_public_name(self):
        package = run.import_program()
        specfun = package.specfun
        original = specfun.gauss_legendre
        del specfun.gauss_legendre
        tr = Tracer()
        try:
            for index in range(2):  # the traced run installs the tracer once per op
                tr.install()
                try:
                    with tr.op(index):
                        package.lambda1(2, 3.0, 0.5)
                finally:
                    tr.uninstall()
        finally:
            specfun.gauss_legendre = original
        self.assertIn("specfun.gauss_legendre", tr.missing)
        layers = run.per_layer(tr, 2, 0.0, 0.0)
        self.assertEqual(layers["specfun.gauss_legendre.calls"]["value"], 0.0)
        self.assertEqual(layers["spectrum.lambda1.calls"]["value"], 1.0)
        self.assertGreater(layers["specfun.sph_bessel_j_all.calls"]["value"], 0.0)
        self.assertIs(package.lambda1, package.spectrum.lambda1)
        self.assertFalse(hasattr(package.lambda1, "__wrapped__"))


if __name__ == "__main__":
    unittest.main()
