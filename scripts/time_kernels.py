#!/usr/bin/env python3
"""Time the propagation kernels of two checkouts of xtalksim, by block dimension.

Usage::

    python3 scripts/time_kernels.py PARENT_CHECKOUT [--change CHECKOUT]

Each run is a fresh interpreter that imports the package from
``<checkout>/src`` and builds all 19 presets, clearing the scan cache before
each.  Every call of an exponential kernel (``operators.expm_hamiltonian``,
and ``operators._term_exponentials`` where the checkout has it) and of
``operators.ordered_product`` is timed with ``time.perf_counter`` (no
profiler) and summed by block dimension d, so exponentials count under
``expm`` whichever function computes them.  Where the checkout has
``operators._pauli_product``, which exponentiates and multiplies the 1x1
and 2x2 steps in one call, its matrices count under ``expm`` and
``product`` as those kernels would count them (one exponential per block
and coupling of a 1x1 chunk's summed phases, and every 2x2 step), and its
seconds on a row of their own, ``pauli``.  A ``total`` row per dimension
adds the seconds of every kernel.  The two sides alternate for ``ROUNDS``
rounds, the parent first in even rounds.  For each kernel and dimension
this prints the matrices one run processes and the median seconds of each
side.  The ``expm`` and ``product`` counts must be the same in every run of
both sides: the script exits 1 if they are not, 0 otherwise.  ``--change``
defaults to the checkout holding this script.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Runs per side.
ROUNDS = 4
#: Kernel names and the functions of ``operators`` timed under them.
KERNELS = {"expm": ("expm_hamiltonian", "_term_exponentials"), "product": ("ordered_product",)}


def add(totals: dict, d: int, matrices: int, seconds: float) -> None:
    """Add ``matrices`` and ``seconds`` to ``totals[d]``."""
    entry = totals.setdefault(d, [0, 0.0])
    entry[0] += matrices
    entry[1] += seconds


def timed(kernel, totals: dict, counted):
    """``kernel`` adding the matrices of ``counted(argument, result)`` and its
    seconds to ``totals[d]`` on each call."""

    def wrapper(*args):
        start = time.perf_counter()
        out = kernel(*args)
        elapsed = time.perf_counter() - start
        mats = counted(args[0], out)
        d = np.shape(mats)[-1]
        add(totals, d, np.size(mats) // (d * d), elapsed)
        return out

    return wrapper


def timed_pauli(kernel, totals: dict):
    """``_pauli_product`` adding its matrices to ``totals["expm"]`` and
    ``totals["product"]`` and its seconds to ``totals["pauli"]``."""

    def wrapper(weights, coefficients, d):
        start = time.perf_counter()
        out = kernel(weights, coefficients, d)
        elapsed = time.perf_counter() - start
        blocks = out.size // (d * d)
        steps = blocks * weights.shape[0] if d == 2 else blocks
        add(totals["expm"], d, steps, 0.0)
        if d == 2:
            add(totals["product"], d, steps, 0.0)
        add(totals["pauli"], d, steps, elapsed)
        return out

    return wrapper


def run_presets(checkout: Path) -> dict:
    """Kernel totals ``{kernel: {d: [matrices, seconds]}}`` of one pass over the presets."""
    from xtalksim import experiments, operators

    origin = Path(operators.__file__).resolve()
    if checkout.resolve() / "src" not in origin.parents:
        raise SystemExit(f"xtalksim imported from {origin}, not from {checkout}/src")
    totals = {kernel: {} for kernel in (*KERNELS, "pauli")}
    wrappers = {"_pauli_product": functools.partial(timed_pauli, totals=totals)}
    for kernel, names in KERNELS.items():
        # An exponential is counted by its result: every d x d step it
        # computes, whatever its argument.  A product by its factors.
        counted = (lambda arg, out: out) if kernel == "expm" else (lambda arg, out: arg)
        for name in names:
            wrappers[name] = functools.partial(timed, totals=totals[kernel], counted=counted)
    for name, wrap in wrappers.items():
        original = getattr(operators, name, None)
        if original is None:
            continue
        wrapper = wrap(original)
        # Replace every binding, so calls through other modules' imports count too.
        for module in [m for key, m in sys.modules.items() if key.startswith("xtalksim")]:
            for attr, value in vars(module).items():
                if value is original:
                    setattr(module, attr, wrapper)
    for preset in experiments.PRESETS:
        experiments._SCAN_CACHE.clear()
        experiments.run_preset(preset)
    return totals


def run_side(checkout: Path) -> dict:
    """``run_presets`` of ``checkout`` in a fresh interpreter, keyed by kernel and d."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout)],
        env=env, check=True, capture_output=True, text=True,
    )
    return {k: {int(d): v for d, v in t.items()} for k, t in json.loads(done.stdout).items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument(
        "--change", type=Path, default=Path(__file__).resolve().parents[1], help="checkout under test"
    )
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in checkouts}
    for r in range(ROUNDS):
        for side in list(checkouts)[:: 1 if r % 2 == 0 else -1]:
            runs[side].append(run_side(checkouts[side]))
            print(f"round {r + 1}/{ROUNDS}: {side} done", file=sys.stderr)
    for run in runs["parent"] + runs["change"]:
        timed_rows = [run[kernel] for kernel in (*KERNELS, "pauli")]
        run["total"] = {
            d: [run["expm"].get(d, [0])[0], sum(row.get(d, [0, 0.0])[1] for row in timed_rows)]
            for d in set().union(*timed_rows)
        }
    same = True
    print(f"{'kernel':<8} {'d':>3} {'matrices':>10} {'parent s':>9} {'change s':>9} {'ratio':>6}")
    for kernel in (*KERNELS, "pauli", "total"):
        for d in sorted({d for side in runs.values() for run in side for d in run[kernel]}):
            # Only the kernels of KERNELS must count alike: a checkout may lack ``pauli``.
            counts = {
                run[kernel].get(d, [0])[0]
                for side in runs.values() for run in side if kernel in KERNELS or d in run[kernel]
            }
            medians = [statistics.median(run[kernel].get(d, [0, 0.0])[1] for run in side) for side in runs.values()]
            same = same and (len(counts) == 1 or kernel not in KERNELS)
            ratio = medians[1] / medians[0] if medians[0] else float("nan")
            count = counts.pop() if len(counts) == 1 else "DIFFERS"
            print(f"{kernel:<8} {d:>3} {count:>10} {medians[0]:>9.4f} {medians[1]:>9.4f} {ratio:>6.3f}")
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(run_presets(Path(sys.argv[2]))))
    else:
        sys.exit(main())
