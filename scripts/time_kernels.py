#!/usr/bin/env python3
"""Count and time the propagation kernels of two checkouts of xtalksim.

Usage::

    python3 scripts/time_kernels.py PARENT_CHECKOUT [--change CHECKOUT]

First, each checkout builds all 19 presets once, in a fresh interpreter
that imports the package from ``<checkout>/src``, clearing the scan cache
before each preset.  Every exponential and every matrix product its kernels
compute is counted by block dimension d:

* ``expm``: each step ``operators._term_exponentials`` returns or yields;
* ``product``: the multiplications of ``operators.ordered_product``, n - 1
  per stack entry of an ``(n, ..., d, d)`` stack;
* both, for ``operators._pauli_product``, which exponentiates and
  multiplies the 1x1 and 2x2 steps in one call: one exponential per block
  and coupling of a 1x1 chunk's summed phases, and every 2x2 step.

A real-form stack (2d x 2d float64, ``operators`` docstring) counts under its
complex dimension d.  Where ``_term_exponentials`` yields its steps by
sub-batch, each sub-batch after a chunk's first also counts, under
``product``, the products that join it to the running product of
``advance``.  Each ``operators.advance`` call, one per chunk and stack, also
counts three products per block and coupling: the one that joins its chunk
to the propagator and the two of its Newton-Schulz step.  So both
checkouts count the same work alike, and the script exits 1 if the counts
differ, 0 otherwise.

Then both checkouts are loaded into one interpreter, and ``operators.advance``
of each is timed on one fixed chunk per dimension, each side on the block
stack its own checkout builds: the first 2,048-step chunk at the default
0.02 ns step of a star FM center-X gate (10x10 and 6x6), a pair DD X gate
(4x4) and a star DD idle (2x2), at the matched gate time.  Last,
``SymmetryBlocks.propagate`` of each side is timed over one whole gate
window of a five-coupling stack, the pair DD idle at the matched time and
the default step, chunking included.  The sides alternate, the parent
first in even rounds; each sample is ``CALLS`` consecutive calls, and there
are ``ROUNDS`` samples per side.  Timing both sides in one process on one
input removes the drift between interpreters that a pass over the presets
suffers.  For each case this prints its steps, each side's median
milliseconds per call, the ratio change/parent of the medians, the rounds
the change won, and the largest difference between the two sides'
propagators.  ``--change`` defaults to the checkout holding this script.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Timed samples per side and dimension, and ``advance`` calls per sample.
ROUNDS, CALLS = 31, 5


def add(totals: dict, kernel: str, d: int, count: int) -> None:
    """Add ``count`` to ``totals[kernel][d]``."""
    totals[kernel][d] = totals[kernel].get(d, 0) + int(count)


def complex_dim(a) -> int:
    """The dimension d of a complex ``(..., d, d)`` stack or of a real-form ``(..., 2d, 2d)`` one."""
    return a.shape[-1] if np.iscomplexobj(a) else a.shape[-1] // 2


def counting(name: str, kernel, totals: dict):
    """``kernel``, the function ``name`` of ``operators``, adding the work of each call to ``totals``."""
    if name == "ordered_product":
        def wrapper(mats):
            out = kernel(mats)
            d, entries = complex_dim(mats), out.size // out.shape[-1] ** 2
            add(totals, "product", d, (len(mats) - 1) * entries)
            return out
    elif name == "advance":
        def wrapper(u, *args):
            out = kernel(u, *args)
            add(totals, "product", out.shape[-1], 3 * (out.size // out.shape[-1] ** 2))
            return out
    elif name == "_pauli_product":
        def wrapper(weights, coefficients, d):
            out = kernel(weights, coefficients, d)
            blocks = out.size // (d * d)
            add(totals, "expm", d, blocks * weights.shape[0] if d == 2 else blocks)
            if d == 2:
                add(totals, "product", d, blocks * (weights.shape[0] - 1))
            return out
    else:  # _term_exponentials: an array of steps, or a generator of real-form sub-batches
        def wrapper(*args):
            out = kernel(*args)
            if isinstance(out, np.ndarray):
                add(totals, "expm", out.shape[-1], out.size // out.shape[-1] ** 2)
                return out
            return yielding(out)

        def yielding(batches):
            for i, steps in enumerate(batches):
                d = complex_dim(steps)
                entries = steps.size // len(steps) // (2 * d) ** 2
                add(totals, "expm", d, len(steps) * entries)
                add(totals, "product", d, entries if i else 0)
                yield steps
    return wrapper


def count_presets(checkout: Path) -> dict:
    """Kernel counts ``{kernel: {d: count}}`` of one pass over the presets."""
    from xtalksim import experiments, operators

    origin = Path(operators.__file__).resolve()
    if checkout.resolve() / "src" not in origin.parents:
        raise SystemExit(f"xtalksim imported from {origin}, not from {checkout}/src")
    totals = {"expm": {}, "product": {}}
    for name in ("_term_exponentials", "ordered_product", "_pauli_product", "advance"):
        original = getattr(operators, name, None)
        if original is None:
            continue
        wrapper = counting(name, original, totals)
        # Replace every binding, so calls through other modules' imports count too.
        for module in [m for key, m in sys.modules.items() if key.startswith("xtalksim")]:
            for attr, value in vars(module).items():
                if value is original:
                    setattr(module, attr, wrapper)
    for preset in experiments.PRESETS:
        experiments._SCAN_CACHE.clear()
        experiments.run_preset(preset)
    return totals


def count_side(checkout: Path) -> dict:
    """``count_presets`` of ``checkout`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run(
        [sys.executable, __file__, "--worker", str(checkout)],
        env=env, check=True, capture_output=True, text=True,
    )
    return {k: {int(d): v for d, v in t.items()} for k, t in json.loads(done.stdout).items()}


def load(checkout: Path):
    """``(model, operators)`` of a fresh import of the package from ``checkout``."""
    for key in [k for k in sys.modules if k == "xtalksim" or k.startswith("xtalksim.")]:
        del sys.modules[key]
    src = str((checkout / "src").resolve())
    sys.path.insert(0, src)
    try:
        model = importlib.import_module("xtalksim.model")
        operators = importlib.import_module("xtalksim.operators")
    finally:
        sys.path.remove(src)
    if Path(src) not in Path(operators.__file__).resolve().parents:
        raise SystemExit(f"xtalksim imported from {operators.__file__}, not from {src}")
    return model, operators


def chunk(model, operators, d: int):
    """A call of ``operators.advance`` on the fixed chunk of dimension ``d`` (module docstring)."""
    params = model.SystemParams.from_mhz(50.0, 5.0)
    t_m = params.matched_time()
    dd = model.DynamicalDecoupling(segments=4, width=t_m / 16.0)
    layout, scheme, gate = {
        10: (model.STAR, model.FrequencyModulation(cycles=8, gamma=2.0, single_site=True), model.XGate(t_m, target=2)),
        4: (model.PAIR, dd, model.XGate(t_m, target=1)),
        2: (model.STAR, dd, model.Idle(t_m)),
    }[10 if d == 6 else d]
    h = model.assemble_hamiltonian(params, layout, scheme, gate)
    (stack,) = [s for s in h.blocks().stacks if s.dim == d]
    edges = operators.step_boundaries(0.0, h.t_end, 0.02, h.breakpoints)
    widths, times = next(operators.gauss_nodes(edges, operators.CHUNK))
    weights = model._magnus_weights(h.coefficients(times), widths)
    u = np.tile(np.eye(d, dtype=complex), (len(stack.copies), 1, 1))
    return lambda: operators.advance(u, weights, stack.matrices, stack.norms), len(widths)


def stack_window(model, operators):
    """A call of ``SymmetryBlocks.propagate`` over the whole pair DD idle
    window at the matched time and the default step, with five couplings."""
    params = model.SystemParams.from_mhz(50.0, 5.0)
    t_m = params.matched_time()
    dd = model.DynamicalDecoupling(segments=4, width=t_m / 16.0)
    h = model.assemble_hamiltonian(params, model.PAIR, dd, model.Idle(t_m))
    h = dataclasses.replace(h, couplings=tuple(params.j * np.linspace(0.2, 1.0, 5)))
    blocks = h.blocks()
    steps = len(operators.step_boundaries(0.0, h.t_end, 0.02, h.breakpoints)) - 1
    return lambda: blocks.propagate(0.0, h.t_end, 0.02), steps


def time_calls(sides: dict, case: str, make) -> None:
    """Time ``make(model, operators)``'s call of each side, alternating
    (module docstring), and print one row of the table for ``case``."""
    calls = {side: make(*modules) for side, modules in sides.items()}
    (steps,) = {n for _, n in calls.values()}
    results = {side: call() for side, (call, _) in calls.items()}
    samples = {side: [] for side in calls}
    for r in range(ROUNDS):
        for side in list(calls)[:: 1 if r % 2 == 0 else -1]:
            call = calls[side][0]
            start = time.perf_counter()
            for _ in range(CALLS):
                call()
            samples[side].append((time.perf_counter() - start) / CALLS * 1e3)
    parent, change = (statistics.median(samples[side]) for side in ("parent", "change"))
    won = sum(c < p for p, c in zip(samples["parent"], samples["change"]))
    diff = float(np.abs(results["change"] - results["parent"]).max())
    print(f"{case:<17} {steps:>6} {parent:>10.3f} {change:>10.3f} {change / parent:>6.3f} "
          f"{won:>3}/{ROUNDS:<2} {diff:>11.2e}")


def time_kernels(checkouts: dict) -> None:
    """Print the alternating in-process timings (module docstring)."""
    sides = {side: load(path) for side, path in checkouts.items()}
    print(f"{'case':<17} {'steps':>6} {'parent ms':>10} {'change ms':>10} {'ratio':>6} {'won':>6} {'max |diff|':>11}")
    for d in (10, 6, 4, 2):
        time_calls(sides, f"advance d={d}", functools.partial(chunk, d=d))
    time_calls(sides, "propagate C=5", stack_window)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument(
        "--change", type=Path, default=Path(__file__).resolve().parents[1], help="checkout under test"
    )
    args = parser.parse_args()
    checkouts = {"parent": args.parent, "change": args.change}
    counts = {side: count_side(path) for side, path in checkouts.items()}
    same = True
    print(f"{'kernel':<8} {'d':>3} {'parent':>10} {'change':>10}")
    for kernel in ("expm", "product"):
        for d in sorted(set(counts["parent"][kernel]) | set(counts["change"][kernel])):
            parent, change = (counts[side][kernel].get(d, 0) for side in checkouts)
            same = same and parent == change
            flag = "" if parent == change else "  DIFFERS"
            print(f"{kernel:<8} {d:>3} {parent:>10} {change:>10}{flag}")
    print()
    time_kernels(checkouts)
    return 0 if same else 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        print(json.dumps(count_presets(Path(sys.argv[2]))))
    else:
        sys.exit(main())
