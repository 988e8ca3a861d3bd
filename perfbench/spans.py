"""Span tracing for the benchmark's traced pass.

The tracer replaces public functions of the ``xtalksim`` modules with
wrappers that record one span per call: name, start, end and parent span.
Spans stay in memory until the pass ends and are then folded into per-layer
metrics.  Counts that describe work (steps, matrices, flops, bytes) are
derived from argument and result shapes, so they repeat exactly from run to
run; flops and bytes are *computed* from those shapes, not measured.

Nothing here is imported by ``xtalksim``: wrappers are installed at run time
into every module that imported a target by name, and removed again before
any untraced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# Real floating-point operations per complex multiply-add, and bytes per
# complex128 element, for the computed flop and byte counts.
FLOPS_PER_CMAC = 8
BYTES_PER_COMPLEX = 16
# Complex Hermitian eigendecomposition with eigenvectors, per matrix:
# about 9 d^3 real multiply-adds for the real symmetric case (Golub and
# Van Loan, 4th ed., Sec. 8.3), times 4 for complex arithmetic.
EIGH_CMACS_PER_D3 = 9


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans from wrapped calls; single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        """Wrapper of ``fn`` that records a span; ``count(args, kwargs,
        result)`` returns a dict of counts attached to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self.clock(), parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts.update(count(args, kwargs, result))
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _outermost(spans: list[Span]) -> list[bool]:
    """True where no ancestor span has the same name (avoids double counting
    time of recursive or re-entrant calls)."""
    flags = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        flags.append(p < 0)
    return flags


def layer_totals(spans: list[Span]) -> dict:
    """Per span name: ``calls``, ``s`` (outermost spans only), ``self_s`` and
    the sum of every count recorded on its spans."""
    selfs = self_times(spans)
    outer = _outermost(spans)
    totals: dict = defaultdict(lambda: defaultdict(int))
    for s, own, top in zip(spans, selfs, outer):
        t = totals[s.name]
        t["calls"] += 1
        t["self_s"] += own
        if top:
            t["s"] += s.duration
        for k, v in s.counts.items():
            t[k] = max(t[k], v) if k.endswith("_max") else t[k] + v
    return totals


def ancestor(spans: list[Span], i: int, name: str) -> int:
    """Index of the nearest enclosing span called ``name``, or -1."""
    p = spans[i].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


# ---------------------------------------------------------------------------
# Counts attached to spans


def _propagate_counts(args, kwargs, result):
    from xtalksim.operators import unitarity_defect

    u = result[0] if isinstance(result, tuple) else result
    return {
        "steps": (kwargs["grid"] if "grid" in kwargs else args[1]).n_steps,
        "unitarity_defect_max": unitarity_defect(u),
    }


def _expm_counts(args, kwargs, result):
    shape = result.shape
    d = shape[-1]
    mats = 1
    for n in shape[:-2]:
        mats *= n
    cmacs = (4 * EIGH_CMACS_PER_D3 + 1) * d**3  # eigh, then V diag V^dag
    return {
        f"mats_d{d}": mats,
        "flops_computed": mats * FLOPS_PER_CMAC * cmacs,
        # Read H, write U (the eigh workspace is not counted).
        "bytes_computed": mats * 2 * d * d * BYTES_PER_COMPLEX,
    }


def _product_counts(args, kwargs, result):
    n, d = args[0].shape[0], args[0].shape[-1]
    matmuls = n - 1
    return {
        "matmuls": matmuls,
        "flops_computed": matmuls * FLOPS_PER_CMAC * d**3,
        "bytes_computed": matmuls * 3 * d * d * BYTES_PER_COMPLEX,
    }


def _sample_counts(args, kwargs, result):
    return {"points": result.shape[0] if result.ndim == 3 else 1}


def _scan_counts(args, kwargs, result):
    return {"points": int(result.values.size)}


def _sequence_counts(args, kwargs, result):
    return {"gates": int(result.infidelities.size)}


def _single_gate_counts(args, kwargs, result):
    return {"gates": 1}


def _sweep_counts(args, kwargs, result):
    return {"cells": sum(int(s.infidelities.size) for s in result)}


# (defining module, attribute or Class.method, span name, count function)
TARGETS = [
    ("xtalksim.operators", "propagate", "operators.propagate", _propagate_counts),
    ("xtalksim.operators", "expm_hamiltonian", "operators.expm", _expm_counts),
    ("xtalksim.operators", "ordered_product", "operators.product", _product_counts),
    ("xtalksim.model", "AssembledHamiltonian.__call__", "model.sample", _sample_counts),
    ("xtalksim.model", "assemble_hamiltonian", "model.assemble", None),
    ("xtalksim.model", "assemble_dd_baseline", "model.assemble", None),
    ("xtalksim.pulses", "SineEnvelopeDrive.sample", "pulses.sample", None),
    ("xtalksim.pulses", "FmZModulation.sample", "pulses.sample", None),
    ("xtalksim.pulses", "NascentDeltaTrain.sample", "pulses.sample", None),
    ("xtalksim.pulses", "SegmentedDrive.sample", "pulses.sample", None),
    ("xtalksim.magnus", "epsilon_fm1", "magnus.fm1", None),
    ("xtalksim.magnus", "epsilon_fm2_idle", "magnus.fm2_idle", None),
    ("xtalksim.magnus", "epsilon_fm2_x", "magnus.fm2_x", None),
    ("xtalksim.magnus", "epsilon_fm2_parallel_xx", "magnus.fm2_parallel_xx", None),
    ("xtalksim.magnus", "epsilon_dd1", "magnus.dd1", None),
    ("xtalksim.magnus", "epsilon_dd2_numeric", "magnus.dd2_numeric", None),
    ("xtalksim.magnus", "ordered_double_integral", "magnus.double_integral", None),
    ("xtalksim.optimize", "scan_gamma", "optimize.scan", _scan_counts),
    ("xtalksim.optimize", "corner_averaged_fidelity", "optimize.corner", None),
    ("xtalksim.experiments", "run_single_gate", "experiments.single_gate", _single_gate_counts),
    ("xtalksim.experiments", "run_sequence", "experiments.sequence", _sequence_counts),
    ("xtalksim.experiments", "sweep_j", "experiments.sweep_j", _sweep_counts),
    ("xtalksim.experiments", "cached_scan", "experiments.cached_scan", None),
    ("xtalksim.cli", "main", "cli.main", None),
]


class Installed:
    """Wrappers in place; ``remove()`` puts every original back."""

    def __init__(self, tracer: Tracer, targets=TARGETS):
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        packages = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "xtalksim" or n.startswith("xtalksim."))
        ]
        for module_name, attr, name, count in targets:
            owner = sys.modules.get(module_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = tracer.wrap(name, original, count)
            if cls_name:
                self._patch(owner, meth, wrapper, original)
                continue
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper, original)

    def _patch(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self.patches.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self.patches):
            setattr(owner, key, original)

    def leftovers(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original in self.patches
            if vars(owner).get(key) is not original
        ]
