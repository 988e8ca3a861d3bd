"""Self-tests of the benchmark's own machinery (about half a minute).

Run from the repository root:

    python3 perfbench/selftest.py

The tasks here are small versions of the workload tasks (coarse steps and
grids), so they exercise the same code paths quickly.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import run
from checks import Checker
from configs import REFERENCE, WORKLOADS, Task, generate, write
from reference import KERNELS, NOMINAL_S, SENSITIVITY, SHARE, HostSpeed
from spans import Installed, Span, Tracer, layer_totals, self_times

cli = run._import_package()
WORK = run.HERE / "work"
WORK.mkdir(exist_ok=True)

EXACT_COUNTS = (
    "operators.steps",
    "operators.propagate.calls",
    "operators.expm.mats_d4",
    "operators.expm.mats_d32",
    "operators.expm.flops_computed",
    "operators.expm.bytes_computed",
    "operators.product.matmuls",
    "operators.product.flops_computed",
    "operators.product.bytes_computed",
    "model.sample.points",
    "magnus.double_integral.calls",
    "optimize.scan.points",
    "experiments.scan_cache.hits",
    "experiments.scan_cache.misses",
)

SMALL_TASKS = [
    Task("pair-cd-sweep", "simulate", {"j_mhz": [5.0, 2.0], "step_ns": 0.05}),
    Task("pair-fm-sequence", "simulate", {
        "j_mhz": 5.0, "scheme": "fm", "cycles": 4, "gamma_mhz": "optimize",
        "functional": "fm2-idle", "corner_average": True, "repetitions": 3, "step_ns": 0.05,
    }),
    Task("pair-dd-x", "simulate", {"scheme": "dd", "gate": "x", "step_ns": 0.05}),
    Task("star-cd-idle", "simulate", {"topology": "star", "step_ns": 0.1}),
    Task("scan-fm2-idle", "optimize-gamma", {
        "functional": "fm2-idle", "cycles": 4, "grid_step_mhz": 25.0,
    }),
]


def traced_pass(tasks, work):
    tracer = Tracer()
    installed = Installed(tracer)
    try:
        _, outcomes = run.run_pass(cli, tasks, work)
    finally:
        installed.remove()
    return tracer, installed, outcomes


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            Span("root", 0.0, 10.0),
            Span("a", 1.0, 4.0, parent=0),
            Span("a", 2.0, 3.0, parent=1),
            Span("b", 5.0, 7.0, parent=0),
        ]
        self.assertEqual(self_times(spans), [5.0, 2.0, 1.0, 2.0])
        totals = layer_totals(spans)
        self.assertEqual(totals["a"]["calls"], 2)
        self.assertEqual(totals["a"]["s"], 3.0)  # the nested "a" is not counted twice
        self.assertEqual(totals["a"]["self_s"], 3.0)
        self.assertEqual(totals["root"]["self_s"], 5.0)

    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_latency([1.0] * 39))
        p, value = run.tail_latency([float(i) for i in range(1, 41)])
        self.assertEqual((p, value), (75.0, 30.0))


class ReferenceScale(unittest.TestCase):
    def test_scale_follows_mean_sample_time(self):
        speed = HostSpeed({"prop4": 2, "fm1": 1})
        self.assertAlmostEqual(speed.nominal, 2 * NOMINAL_S["prop4"] + NOMINAL_S["fm1"])
        with self.assertRaises(ValueError):
            speed.scale()
        speed.durations = [0.04, 0.01, 0.02, 0.09]
        self.assertAlmostEqual(speed.scale(), (speed.nominal / 0.04) ** SENSITIVITY)
        speed.durations = []
        speed.sample()
        means = speed.kernel_means()
        self.assertEqual(set(means), {"prop4", "fm1"})
        self.assertAlmostEqual(2 * means["prop4"] + means["fm1"], speed.durations[0])

    def test_mix_is_sampled_between_tasks(self):
        with tempfile.TemporaryDirectory(dir=WORK) as d:
            write(SMALL_TASKS[:2], Path(d))
            speed = HostSpeed({"prop4": 1})
            _, outcomes = run.run_pass(cli, SMALL_TASKS[:2], Path(d), speed)
        self.assertGreaterEqual(len(speed.durations), 2)
        busy = sum(o.latency for o in outcomes)
        self.assertGreaterEqual(sum(speed.durations), SHARE * busy - 2 * max(speed.durations))
        self.assertEqual([o.code for o in outcomes], [0, 0])


class TracedRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory(dir=WORK)
        cls.work = Path(cls.tmp.name)
        write(SMALL_TASKS, cls.work)
        cls.before = _attribute_snapshot()
        _, cls.untraced = run.run_pass(cli, SMALL_TASKS, cls.work)
        cls.tracer, cls.installed, cls.traced = traced_pass(SMALL_TASKS, cls.work)
        cls.tracer2, _, _ = traced_pass(SMALL_TASKS, cls.work)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_every_wrapped_attribute_is_original_again(self):
        self.assertGreater(len(self.installed.patches), 0)
        self.assertEqual(self.installed.missing, [])
        self.assertEqual(self.installed.leftovers(), [])
        self.assertEqual(_attribute_snapshot(), self.before)

    def test_traced_and_untraced_csv_bytes_identical(self):
        for a, b in zip(self.untraced, self.traced):
            self.assertEqual(a.code, 0)
            self.assertEqual(a.text.encode(), b.text.encode())

    def test_counts_repeat_exactly(self):
        first = run.layer_metrics(self.tracer.spans)
        second = run.layer_metrics(self.tracer2.spans)
        for key in EXACT_COUNTS:
            self.assertEqual(first[key], second[key], key)
            self.assertIsInstance(first[key], int, key)
        self.assertGreater(first["operators.expm.mats_d4"], 0)
        self.assertGreater(first["operators.expm.mats_d32"], 0)
        self.assertEqual(first["experiments.scan_cache.misses"], 1)
        self.assertEqual(first["experiments.scan_cache.hits"], 0)

    def test_spans_nest_under_cli(self):
        names = {s.name for s in self.tracer.spans}
        for layer in ("cli.main", "operators.propagate", "operators.expm", "model.sample",
                      "pulses.sample", "magnus.fm2_idle", "optimize.scan", "optimize.corner",
                      "experiments.sequence", "experiments.sweep_j"):
            self.assertIn(layer, names)
        roots = [s for s in self.tracer.spans if s.parent < 0]
        self.assertEqual({s.name for s in roots}, {"cli.main"})


class Checks(unittest.TestCase):
    CD = Task("cd", "simulate", {"topology": "pair", "delta_mhz": 50.0, "j_mhz": 5.0,
                                 "scheme": "cd", "gate": "idle"})
    SCAN = Task("scan", "optimize-gamma", {"delta_mhz": 50.0, "j_mhz": 5.0,
                                           "functional": "fm2-idle", "cycles": 4})

    def setUp(self):
        self.checker = Checker()

    def csv(self, rows):
        return "# h\nseries,scheme,abscissa,value\n" + "".join(
            ",".join(str(x) for x in r) + "\n" for r in rows
        )

    def test_wrong_cd_value_is_caught(self):
        ref = self.checker.cd_idle("pair", 50.0, 5.0, 20.0)
        self.assertEqual(self.checker.check(self.CD, 0, self.csv([("single", "CD", 20.0, ref)])), [])
        for wrong in (ref * 1.5, ref / 100.0, -ref, 2.0):
            self.assertNotEqual(
                self.checker.check(self.CD, 0, self.csv([("single", "CD", 20.0, wrong)])), []
            )

    def test_lost_suppression_and_wrong_qubit_are_caught(self):
        ref = self.checker.cd_idle("pair", 50.0, 5.0, 20.0)
        fm = Task("fm", "simulate", {**self.CD.config, "scheme": "fm", "gamma_mhz": 200.34})
        self.assertEqual(self.checker.check(fm, 0, self.csv([("single", "FM", 20.0, ref * 1e-6)])), [])
        self.assertNotEqual(self.checker.check(fm, 0, self.csv([("single", "FM", 20.0, ref / 2)])), [])
        x = Task("x", "simulate", {**self.CD.config, "scheme": "dd", "gate": "x"})
        self.assertEqual(self.checker.check(x, 0, self.csv([("single", "DD", 20.0, 0.01)])), [])
        self.assertNotEqual(self.checker.check(x, 0, self.csv([("single", "DD", 20.0, 0.99)])), [])

    def test_wrong_scan_is_caught(self):
        zero = 0.5  # closed form J^2/Delta in MHz at J = 5, Delta = 50 MHz
        rows = [("scan", "FM-N4", k * 1.59, zero) for k in range(378)]
        good = rows + [("summary", "FM-N4", 126 * 1.59, 0.0)]
        self.assertEqual(self.checker.check(self.SCAN, 0, self.csv(good)), [])
        moved = rows + [("summary", "FM-N4", 127 * 1.59, 0.0)]
        self.assertNotEqual(self.checker.check(self.SCAN, 0, self.csv(moved)), [])
        scaled = [(s, c, a, 10 * v) for s, c, a, v in good]
        self.assertNotEqual(self.checker.check(self.SCAN, 0, self.csv(scaled)), [])
        self.assertNotEqual(self.checker.check(self.SCAN, 3, self.csv(rows)), [])


class Configs(unittest.TestCase):
    def test_seed_determines_configs(self):
        for workload in WORKLOADS:
            a, b = generate(workload, 1), generate(workload, 1)
            self.assertEqual(a, b)
            self.assertNotEqual(a, generate(workload, 2))

    def test_written_files_repeat_byte_for_byte(self):
        with tempfile.TemporaryDirectory(dir=WORK) as d1, \
                tempfile.TemporaryDirectory(dir=WORK) as d2:
            for d in (d1, d2):
                write(generate("pair-sweeps", 3), Path(d))
            for f in Path(d1).iterdir():
                self.assertEqual(f.read_bytes(), (Path(d2) / f.name).read_bytes())

    def test_default_seed_uses_preset_parameters(self):
        for workload in WORKLOADS:
            for task in generate(workload, 0):
                self.assertEqual(task.config["delta_mhz"], 50.0)
                j = task.config["j_mhz"]
                self.assertEqual(j[0] if isinstance(j, list) else j, 5.0)


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(WORKLOADS))
        self.assertEqual(set(REFERENCE), set(WORKLOADS))
        for mix in REFERENCE.values():
            self.assertLessEqual(set(mix), set(KERNELS))


def _attribute_snapshot():
    """Identity of every attribute of every xtalksim module and class."""
    snap = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "xtalksim" or name.startswith("xtalksim.")):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = id(member)
    return snap


if __name__ == "__main__":
    unittest.main()
