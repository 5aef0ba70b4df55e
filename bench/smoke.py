"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 bench/smoke.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that a wrong answer or a failing CLI call is counted as a failed op
without stopping the run, that query lists depend on the seed and only on
it, and that the benchmark refuses to run without the program.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as w  # noqa: E402
from tracer import Tracer  # noqa: E402


def tiny_queries():
    """One small query of every kind the three workloads use."""
    return [
        w.figure1(8, 9),
        w.root_set(12),
        w.genus_set_query(7, 30),
        w.genus_set_query(9, 30),
        w.de_roots_query(500, complete=True),
        w.de_root_genera_query(105),
        w.ms_count_query(21),
        w.t_set_query(11),
        w.roots_query(6),
        w.roots_query(6, fmt="json"),
        w.roots_query(7, degree=5),
        w.ms_roots_query(10),
        w.fractional_query(2, 4, 2),
        w.validate_query(*w.random_data_set(random.Random(0))),
    ]


class Smoke(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        plain = worker.measure(tiny_queries(), 0)
        self.assertEqual(plain["failed"], 0, plain["failures"])
        traced = worker.measure(tiny_queries(), 0, Tracer())
        self.assertEqual((traced["attempted"], traced["failed"]), (2 * len(tiny_queries()), 0),
                         traced["failures"])
        for emitted, declared in (
            (run.end_to_end(plain, [0.1, 0.2, 0.3]), spec["end_to_end"]),
            (run.per_layer(traced), spec["per_layer"]),
        ):
            self.assertEqual(
                {name: unit for name, (_, unit) in emitted.items()},
                {m["name"]: m["unit"] for m in declared},
            )
        layers = traced["layers"]
        for boundary in (
            "cli.main",
            "enumeration.datasets",
            "dataset.parse_dataset",
            "special_roots.classify",
            "numtheory.mod_inverse",
            "fractional.fractional_datasets",
        ):
            self.assertGreater(layers[boundary + ".calls"][0], 0, boundary)
        self.assertAlmostEqual(
            sum(layers[layer + ".self_s"][0] for layer in ("numtheory", "enumeration", "dataset",
                                                           "special_roots", "fractional", "cli")),
            layers["cli.main.s"][0],
        )

    def test_wrong_answers_and_failing_calls_are_failed_ops(self):
        queries = [
            w.figure1(8, 9, rows=1),  # deliberately wrong expected row count
            w.Query(["t-set", "--degree", "4"], lambda stdout, written: None),  # exits 2
            w.ms_count_query(21),
        ]
        raw = worker.measure(queries, 0)
        self.assertEqual((raw["attempted"], raw["failed"]), (3, 2))
        self.assertIn("expected 1", raw["failures"][0]["problem"])
        self.assertIn("exit code 2", raw["failures"][1]["problem"])

    def test_query_lists_follow_the_seed(self):
        for name, make in w.WORKLOADS.items():
            names = [q.name for q in make(7)]
            self.assertEqual(names, [q.name for q in make(7)], name)
            if name != "sweep":
                self.assertGreaterEqual(len(names), 100, name)
                self.assertNotEqual(names, [q.name for q in make(8)], name)

    def test_refuses_to_run_without_the_program(self):
        worker.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=worker.OUT) as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "bench", Path(bare) / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            done = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
