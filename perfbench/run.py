#!/usr/bin/env python3
"""xtalksim benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload star-gates --seed 0 --seconds 28 --trace 0

One client drives ``xtalksim.cli.main`` in this process as a closed loop:
each task is one ``simulate`` or ``optimize-gamma`` invocation on a JSON
config generated from the seed, and the next task starts when the previous
one has returned.  A pass runs every task of the workload once.

``--trace 0`` times whole passes for about ``--seconds`` (at least one pass)
and reports the end-to-end metrics.  ``--trace 1`` runs one untraced pass,
then one pass with span wrappers installed (see spans.py), removes them,
and reports the per-layer metrics and the tracing overhead.
Every CSV is checked (see checks.py).  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give run metadata and details.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread: a star gate takes the same wall time with one thread as
# with OpenBLAS's default, and the default keeps a second core busy, which
# adds noise on a shared machine.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import configs  # noqa: E402
from checks import Checker  # noqa: E402
from reference import HostSpeed  # noqa: E402
from spans import Installed, Tracer, ancestor, layer_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Cold starts measured per run; set-up time is their median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# The tail is the highest of these percentiles with >= TAIL_BEYOND tasks above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "operators.propagate.calls": "count",
    "operators.propagate.s": "s",
    "operators.propagate.self_s": "s",
    "operators.expm.s": "s",
    "operators.expm.mats_d4": "count",
    "operators.expm.mats_d32": "count",
    "operators.expm.flops_computed": "flop",
    "operators.expm.bytes_computed": "B",
    "operators.product.s": "s",
    "operators.product.matmuls": "count",
    "operators.product.flops_computed": "flop",
    "operators.product.bytes_computed": "B",
    "operators.steps": "count",
    "operators.unitarity_defect_max": "abs",
    "model.assemble.calls": "count",
    "model.assemble.s": "s",
    "model.sample.calls": "count",
    "model.sample.s": "s",
    "model.sample.points": "count",
    "pulses.sample.s": "s",
    "magnus.fm1.calls": "count",
    "magnus.fm1.s": "s",
    "magnus.fm2_idle.calls": "count",
    "magnus.fm2_idle.s": "s",
    "magnus.fm2_x.calls": "count",
    "magnus.fm2_x.s": "s",
    "magnus.double_integral.calls": "count",
    "optimize.scan.calls": "count",
    "optimize.scan.s": "s",
    "optimize.scan.points": "count",
    "optimize.corner.calls": "count",
    "experiments.scan_cache.hits": "count",
    "experiments.scan_cache.misses": "count",
    "experiments.gates_per_propagation": "gates/call",
    "experiments.single_gate.calls": "count",
    "experiments.single_gate.s": "s",
    "experiments.sequence.calls": "count",
    "experiments.sequence.s": "s",
    "experiments.sweep_j.cells": "count",
    "cli.main.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}


@dataclass
class Outcome:
    code: object  # exit code, or None when the call raised
    text: str
    latency: float  # measured wall time, s


def _import_package():
    """Import the package from this checkout's sources only."""
    sys.path.insert(0, str(SRC))
    import xtalksim.cli

    origin = Path(xtalksim.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"xtalksim imported from {origin}, not from {SRC}")
    return xtalksim.cli


def _invoke(cli, argv) -> Outcome:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except (Exception, SystemExit):
        code = None
        print(traceback.format_exc(), file=sys.stderr)
    return Outcome(code, out.getvalue(), time.perf_counter() - start)


def _prepare(workload: str, seed: int, work: Path):
    """Everything before the first timed task: import, configs, warm-up."""
    cli = _import_package()
    tasks = configs.generate(workload, seed)
    configs.write(tasks + configs.WARMUP, work)
    for task in configs.WARMUP:
        _invoke(cli, task.argv(work))
    return cli, tasks


def _clear_scan_cache() -> None:
    """Every pass starts with an empty scan cache, so each pass does the
    same cold and warm scans."""
    cache = getattr(sys.modules.get("xtalksim.experiments"), "_SCAN_CACHE", None)
    if cache is not None:
        cache.clear()


def run_pass(cli, tasks, work: Path, speed: HostSpeed | None = None):
    """Run every task once; (summed task time, outcomes).  With ``speed``,
    the reference mix is sampled after each task, outside its timing."""
    _clear_scan_cache()
    gc.collect()
    outcomes = []
    for task in tasks:
        outcomes.append(_invoke(cli, task.argv(work)))
        if speed:
            speed.sample_after(outcomes[-1].latency)
    return sum(o.latency for o in outcomes), outcomes


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import the package, write the
    configs and warm up, then exit.  These are not scaled: process start and
    imports do not follow the compute kernels of reference.py."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(command, stdin=subprocess.DEVNULL)
        # A plain wait() returns as the child exits; wait(timeout) would poll
        # and round the time up to its 50 ms polling step.
        killer = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        killer.start()
        try:
            code = child.wait()
        finally:
            killer.cancel()
            if child.poll() is None:
                child.kill()
                child.wait()
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
    return samples


def tail_latency(latencies: list[float]):
    """(percentile, value) of the highest listed percentile with at least
    TAIL_BEYOND samples above it, or None when there are too few samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def data_rows(text: str) -> int:
    return sum(1 for line in text.splitlines()[1:] if line and not line.startswith("#"))


def layer_metrics(spans) -> dict:
    totals = layer_totals(spans)

    def get(name, key):
        return totals[name][key] if name in totals else 0

    cache_calls = {
        ancestor(spans, i, "experiments.cached_scan")
        for i, s in enumerate(spans)
        if s.name == "optimize.scan"
    }
    misses = len(cache_calls - {-1})
    propagations = get("operators.propagate", "calls")
    gates = get("experiments.single_gate", "gates") + get("experiments.sequence", "gates")
    out = {}
    for key in PER_LAYER:
        layer, _, field = key.rpartition(".")
        out[key] = get(layer, field)
    out.update({
        "operators.steps": get("operators.propagate", "steps"),
        "operators.unitarity_defect_max": get("operators.propagate", "unitarity_defect_max"),
        "experiments.scan_cache.misses": misses,
        "experiments.scan_cache.hits": get("experiments.cached_scan", "calls") - misses,
        "experiments.gates_per_propagation": gates / propagations if propagations else 0.0,
        "cli.self_s": get("cli.main", "self_s"),
    })
    return out


def metadata(workload: str, seed: int, trace: int, seconds: int) -> dict:
    import numpy
    import scipy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    threads = {
        k: os.environ[k]
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if k in os.environ
    }
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "run_seconds": seconds,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def _git_sha():
    """HEAD commit read from .git without running git (None outside a clone)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def check_outcomes(checker, tasks, passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every task of every pass; a task
    also fails when its CSV differs from the first pass's."""
    attempted = failed = 0
    problems = []
    for outcomes in passes:
        for task, outcome, first in zip(tasks, outcomes, passes[0]):
            attempted += 1
            found = checker.check(task, outcome.code, outcome.text) if outcome.code is not None \
                else ["raised"]
            if outcome.text != first.text:
                found.append("CSV differs from the first pass")
            if found:
                failed += 1
                problems += [f"{task.name}: {p}" for p in found]
    return attempted, failed, problems


def run(args, work: Path) -> dict:
    setup = measure_setup(args.workload, args.seed) if not args.trace else []
    cli, tasks = _prepare(args.workload, args.seed, work)
    checker = Checker()
    passes, walls = [], []
    detail: dict = {"tasks": len(tasks)}
    if not args.trace:
        speed = HostSpeed(configs.REFERENCE[args.workload])
        began = time.perf_counter()
        # Stop when one more pass would overshoot --seconds by more than half
        # a pass, so a run lasts --seconds give or take half a pass.
        while not walls or (time.perf_counter() - began
                            + statistics.median(walls) / 2 < args.seconds):
            wall, outcomes = run_pass(cli, tasks, work, speed)
            passes.append(outcomes)
            walls.append(wall)
        # Every reported time is at the reference host speed (reference.py).
        scale = speed.scale()
        latencies = [o.latency * scale for outcomes in passes for o in outcomes]
        attempted, failed, problems = check_outcomes(checker, tasks, passes)
        rows = sum(data_rows(o.text) for outcomes in passes for o in outcomes)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls) * scale,
            "task_p50_s": statistics.median(latencies),
            "results_per_s": rows / (sum(walls) * scale),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        tail = tail_latency(latencies)
        detail.update({
            "passes": len(walls),
            "scale": scale,
            "pass_measured_s": walls,
            "setup_samples_s": setup,
            "reference": {
                "mix": speed.mix,
                "nominal_s": speed.nominal,
                "kernel_mean_s": speed.kernel_means(),
                "samples_s": speed.durations,
            },
            "task_samples": len(latencies),
            "task_median_s": {
                t.name: statistics.median(o[i].latency * scale for o in passes)
                for i, t in enumerate(tasks)
            },
            "task_tail": {"percentile": tail[0], "s": tail[1]} if tail else None,
            "failed_frac": failed / attempted,
        })
        units = END_TO_END
    else:
        base_wall, base = run_pass(cli, tasks, work)
        tracer = Tracer()
        installed = Installed(tracer)
        try:
            traced_wall, traced = run_pass(cli, tasks, work)
        finally:
            installed.remove()
        passes = [base, traced]
        attempted, failed, problems = check_outcomes(checker, tasks, passes)
        problems += [f"wrapper left in place: {name}" for name in installed.leftovers()]
        metrics = layer_metrics(tracer.spans)
        metrics["cli.csv_bytes"] = sum(len(o.text.encode()) for o in traced)
        metrics["trace.overhead_s"] = traced_wall - base_wall
        metrics["failed_frac"] = failed / attempted
        detail.update({
            "untraced_wall_s": base_wall,
            "traced_wall_s": traced_wall,
            "spans": len(tracer.spans),
            "patched_attributes": len(installed.patches),
            "missing_targets": installed.missing,
        })
        units = PER_LAYER
    detail["problems"] = problems[:20]
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(configs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xtalksim" / "__init__.py").is_file():
        print(f"error: no xtalksim sources at {SRC}", file=sys.stderr)
        return 2
    work = HERE / "work" / str(os.getpid())
    try:
        if args.setup_probe:
            _prepare(args.workload, args.seed, work)
            return 0
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "work").rmdir()
    print("meta: " + json.dumps(metadata(args.workload, args.seed, args.trace, args.seconds)))
    print("detail: " + json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
