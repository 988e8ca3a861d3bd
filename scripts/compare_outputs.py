#!/usr/bin/env python3
"""Compare the command-line outputs of two checkouts of xtalksim.

Usage::

    python3 scripts/compare_outputs.py PARENT_CHECKOUT [--change CHECKOUT]

Each checkout runs in a subprocess of its own, importing the package from
``<checkout>/src``, and writes into a temporary directory:

* the CSV of every ``simulate --preset`` run (``presets/<name>.csv``);
* the CSV of ``optimize-gamma`` for fm1, fm2-idle and fm2-x at N = 4, 6, 8
  and gate times "matched" and 30 ns (``gamma/<functional>-N<cycles>-<time>.csv``);
* the CSV of ``simulate --config`` for four gate sequences off the matched
  time, where every gate window differs (``sequences/<name>.csv``): pair CD
  idle at 20.5 ns for 12 gates, pair DD X at 21.3 ns for 5, pair FM
  parallel XX at 30 ns for 7, and star DD center X at 25 ns for 5;
* the stdout of ``verify`` (``verify.txt``);
* the ``error:`` line of every invalid ``simulate`` and ``optimize-gamma``
  config in ``REJECTED``, reported as ``rejected/<command>/<name>``;

and the exit code of every run, and how many times it called
``model.assemble_hamiltonian``.  For each output this prints the rows (lines
not starting with ``#``; every line of ``verify.txt``) that are identical on
both sides out of the total, the largest absolute difference |a - b| and
the largest relative difference |a - b| / max(|a|, |b|) between the numbers
of rows that differ only in their numbers, both exit codes and both
assembly counts, then the total assembly count of each side; for a rejected
config it prints both exit codes and both ``error:`` lines.  Then it prints the line count (as ``wc -l`` counts) of each module under
``src/xtalksim`` in both checkouts, and their totals.  It exits 0 when every
output is byte-identical and every exit code matches, rejected configs
included, and 1 otherwise; the ``error:`` lines and the line and assembly
counts do not affect the exit status.  ``--change`` defaults to the checkout
holding this script.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FUNCTIONALS = ("fm1", "fm2-idle", "fm2-x")
CYCLES = (4, 6, 8)
GATE_TIMES = ("matched", 30.0)
SEQUENCES = {
    "pair-cd-idle-20.5ns-x12": {"scheme": "cd", "gate": "idle", "gate_time": 20.5, "repetitions": 12},
    "pair-dd-x-21.3ns-x5": {"scheme": "dd", "gate": "x", "gate_time": 21.3, "repetitions": 5},
    "pair-fm-parallel-xx-30ns-x7": {
        "scheme": "fm", "gate": "parallel-xx", "gate_time": 30.0, "repetitions": 7,
    },
    "star-dd-center-x-25ns-x5": {
        "topology": "star", "scheme": "dd", "gate": "x", "target": 2, "gate_time": 25.0,
        "repetitions": 5,
    },
}
# Invalid configs, each wrong in one key (a bad value or a key the run does
# not read), by command.
REJECTED = {
    "simulate": {
        "j-empty-grid": {"j_mhz": []},
        "j-negative-entry": {"j_mhz": [1.0, -2.0]},
        "j-nan-entry": {"j_mhz": [1.0, float("nan")]},
        "j-negative": {"j_mhz": -1.0},
        "j-nan": {"j_mhz": float("nan")},
        "delta-negative": {"delta_mhz": -50.0},
        "delta-zero": {"delta_mhz": 0},
        "gate-time-negative": {"gate_time": -5.0},
        "gate-time-zero": {"gate_time": 0},
        "repetitions-zero": {"repetitions": 0},
        "repetitions-fraction": {"repetitions": 2.7},
        "repetitions-bool": {"repetitions": True},
        "x-repetitions-even": {"gate": "x", "repetitions": 4},
        "x-target-zero": {"gate": "x", "target": 0},
        "x-target-fraction": {"gate": "x", "target": 1.5},
        "fm-cycles-zero": {"scheme": "fm", "cycles": 0, "gamma_mhz": 100.0},
        "fm-cycles-fraction": {"scheme": "fm", "cycles": 4.5, "gamma_mhz": 100.0},
        "fm-optimize-cycles-zero": {"scheme": "fm", "cycles": 0},
        "fm-gamma-negative": {"scheme": "fm", "gamma_mhz": -3.0},
        "dd-segments-zero": {"scheme": "dd", "segments": 0},
        "dd-segments-odd": {"scheme": "dd", "segments": 5},
        "dd-segments-fraction": {"scheme": "dd", "segments": 4.2},
        "dd-width-zero": {"scheme": "dd", "width_ns": 0},
        "dd-width-too-wide": {"scheme": "dd", "width_ns": 5.0},
        "step-zero": {"step_ns": 0},
        "step-negative": {"step_ns": -0.01},
        "idle-target": {"gate": "idle", "target": 1},
        "fm-explicit-functional": {"scheme": "fm", "gamma_mhz": 100.0, "functional": "fm2-idle"},
        "cd-single-site": {"scheme": "cd", "single_site": True},
        "unknown-key": {"unknown_key": 1},
    },
    "optimize-gamma": {
        "cycles-zero": {"cycles": 0},
        "cycles-fraction": {"cycles": 4.5},
        "delta-negative": {"delta_mhz": -50.0},
        "j-zero": {"j_mhz": 0},
        "j-negative": {"j_mhz": -5.0},
        "gate-time-zero": {"gate_time": 0},
        "gate-time-negative": {"gate_time": -20.0},
        "grid-step-zero": {"grid_step_mhz": 0},
        "grid-max-zero": {"grid_max_mhz": 0},
        "grid-max-one-step": {"grid_max_mhz": 2.0},
        "unknown-key": {"unknown_key": 1},
    },
}
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def count_assemblies() -> list:
    """Wrap ``model.assemble_hamiltonian`` in every loaded ``xtalksim`` module
    that holds it; the returned list grows by one entry per call."""
    from xtalksim import model

    calls = []
    original = model.assemble_hamiltonian

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("xtalksim") and getattr(module, "assemble_hamiltonian", None) is original:
            setattr(module, "assemble_hamiltonian", counting)
    return calls


def write_outputs(checkout: Path, out: Path) -> None:
    """Run every compared command of ``checkout`` in this process, into ``out``."""
    from xtalksim import cli
    from xtalksim.experiments import PRESETS

    origin = Path(cli.__file__).resolve()
    if checkout.resolve() / "src" not in origin.parents:
        raise SystemExit(f"xtalksim imported from {origin}, not from {checkout}/src")
    exits, assemblies = {}, {}
    calls = count_assemblies()

    def run(path: Path, argv: list[str]) -> None:
        before = len(calls)
        exits[str(path.relative_to(out))] = cli.entry(argv)
        assemblies[str(path.relative_to(out))] = len(calls) - before

    (out / "presets").mkdir(parents=True)
    for name in PRESETS:
        path = out / "presets" / f"{name}.csv"
        run(path, ["simulate", "--preset", name, "--out", str(path)])
    (out / "gamma").mkdir()
    for functional in FUNCTIONALS:
        for cycles in CYCLES:
            for gate_time in GATE_TIMES:
                label = gate_time if isinstance(gate_time, str) else f"{gate_time:g}ns"
                path = out / "gamma" / f"{functional}-N{cycles}-{label}.csv"
                config = path.with_suffix(".json")
                config.write_text(
                    json.dumps({"functional": functional, "cycles": cycles, "gate_time": gate_time})
                )
                with contextlib.redirect_stderr(io.StringIO()):
                    run(path, ["optimize-gamma", "--config", str(config), "--out", str(path)])
                config.unlink()
    (out / "sequences").mkdir()
    for name, cfg in SEQUENCES.items():
        path = out / "sequences" / f"{name}.csv"
        config = path.with_suffix(".json")
        config.write_text(json.dumps(cfg))
        run(path, ["simulate", "--config", str(config), "--out", str(path)])
        config.unlink()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        run(out / "verify.txt", ["verify"])
    (out / "verify.txt").write_text(stdout.getvalue())
    rejected = {}
    for command, configs in REJECTED.items():
        for name, cfg in configs.items():
            config = out / "rejected.json"
            config.write_text(json.dumps(cfg))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.entry([command, "--config", str(config)])
            # The error line, or a traceback's last line.
            rejected[f"rejected/{command}/{name}"] = [code, (stderr.getvalue().strip().splitlines() or [""])[-1]]
            config.unlink()
    (out / "exits.json").write_text(
        json.dumps({"exits": exits, "assemblies": assemblies, "rejected": rejected}, indent=1)
    )


def run_side(checkout: Path, out: Path) -> dict:
    """Write the outputs of ``checkout`` into ``out`` from a fresh interpreter;
    return its exit codes and assembly counts by output, and the exit code and
    stderr of each rejected config."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run(
        [sys.executable, __file__, "--worker", str(out), str(checkout)], env=env, check=True
    )
    return json.loads((out / "exits.json").read_text())


def rows(path: Path) -> list[str]:
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    return lines if path.suffix == ".txt" else [line for line in lines if not line.startswith("#")]


def compare(parent: Path, change: Path) -> tuple[int, int, float, float]:
    """Identical rows, total rows and the largest absolute and relative number deltas."""
    a, b = rows(parent), rows(change)
    same, delta, relative = 0, 0.0, 0.0
    for x, y in zip(a, b):
        if x == y:
            same += 1
            continue
        xs, ys = NUMBER.findall(x), NUMBER.findall(y)
        if NUMBER.sub("#", x) != NUMBER.sub("#", y) or len(xs) != len(ys):
            delta = relative = math.inf
            continue
        for u, v in zip(map(float, xs), map(float, ys)):
            delta = max(delta, abs(u - v))
            if u != v:
                relative = max(relative, abs(u - v) / max(abs(u), abs(v)))
    if len(a) != len(b):
        delta = relative = math.inf
    return same, max(len(a), len(b)), delta, relative


def line_counts(checkout: Path) -> dict[str, int]:
    """Newline count of each module under ``<checkout>/src/xtalksim``, by file name."""
    return {p.name: p.read_bytes().count(b"\n") for p in sorted((checkout / "src" / "xtalksim").glob("*.py"))}


def print_line_counts(checkouts: dict[str, Path]) -> None:
    counts = {side: line_counts(checkout) for side, checkout in checkouts.items()}
    modules = sorted(set().union(*counts.values()))
    width = max(len(m) for m in modules + ["src/ lines"])
    print(f"{'src/ lines':<{width}}  " + "  ".join(f"{side:>7}" for side in counts))
    for module in modules + ["total"]:
        cells = [sum(c.values()) if module == "total" else c.get(module, 0) for c in counts.values()]
        print(f"{module:<{width}}  " + "  ".join(f"{n:>7}" for n in cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument(
        "--change", type=Path, default=Path(__file__).resolve().parents[1], help="checkout under test"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        checkouts = {"parent": args.parent, "change": args.change}
        sides = {side: Path(tmp) / side for side in checkouts}
        results = {side: run_side(checkout, sides[side]) for side, checkout in checkouts.items()}
        exits = {side: result["exits"] for side, result in results.items()}
        assemblies = {side: result["assemblies"] for side, result in results.items()}
        outputs = sorted(set(exits["parent"]) | set(exits["change"]))
        width = max(len(n) for n in outputs)
        identical = 0
        for name in outputs:
            paths = [side / name for side in sides.values()]
            same, total, delta, relative = compare(*paths)
            codes = [side.get(name) for side in exits.values()]
            built = [side.get(name) for side in assemblies.values()]
            equal = all(p.is_file() for p in paths) and paths[0].read_bytes() == paths[1].read_bytes()
            identical += equal and codes[0] == codes[1]
            print(
                f"{name:<{width}}  {same}/{total} rows identical, max |delta| {delta:.3g} "
                f"(relative {relative:.3g}), "
                f"exit {codes[0]} -> {codes[1]}, assemblies {built[0]} -> {built[1]}"
                f"{'' if equal else '  DIFFERS'}"
            )
    rejected = {side: result["rejected"] for side, result in results.items()}
    probes = sorted(set(rejected["parent"]) | set(rejected["change"]))
    width = max(len(n) for n in probes)
    kept = 0
    for name in probes:
        (code_a, err_a), (code_b, err_b) = (side.get(name, [None, ""]) for side in rejected.values())
        kept += code_a == code_b
        print(f"{name:<{width}}  exit {code_a} -> {code_b}{'' if code_a == code_b else '  DIFFERS'}")
        print(f"{'':<{width}}    parent: {err_a}\n{'':<{width}}    change: {err_b}")
    print(f"{identical}/{len(outputs)} outputs byte-identical with the same exit code")
    print(f"{kept}/{len(probes)} rejected configs with the same exit code")
    totals = [sum(side.values()) for side in assemblies.values()]
    print(f"assemble_hamiltonian calls: {totals[0]} -> {totals[1]}")
    print_line_counts(checkouts)
    return 0 if identical == len(outputs) and kept == len(probes) else 1


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        write_outputs(Path(sys.argv[3]), Path(sys.argv[2]))
    else:
        sys.exit(main())
