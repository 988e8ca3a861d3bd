"""Grid search of the modulation amplitude and corner-point averaging.

The residual-coupling functionals are oscillatory in the modulation
amplitude gamma: they fall from the unmodulated value to a first minimum,
then keep oscillating with slowly growing envelopes.  The working point is
the first interior local minimum on a uniform grid; smaller amplitudes are
easier to realize in hardware, so a flat run of grid values resolves to its
low-gamma end.  Idle-gate fidelities at the selected point are reported as
the average over the two neighboring grid points, which sit on the "corners"
of the narrow dip and bound the attainable value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from xtalksim.magnus import epsilon_fm1, epsilon_fm2_idle, epsilon_fm2_x
from xtalksim.model import (
    FrequencyModulation,
    Idle,
    SystemParams,
    angular_to_cyclic_mhz,
    cyclic_mhz_to_angular,
)
from xtalksim.operators import positive

# Default scan grid: 1.59 MHz resolution from zero up to 600 MHz (cyclic).
DEFAULT_GRID_STEP_MHZ = 1.59
DEFAULT_GRID_MAX_MHZ = 600.0

# Values this close (relative) count as equal when detecting plateaus.
PLATEAU_RTOL = 1e-12

FUNCTIONALS = ("fm1", "fm2-idle", "fm2-x")


def default_gamma_grid(
    step_mhz: float = DEFAULT_GRID_STEP_MHZ,
    max_mhz: float = DEFAULT_GRID_MAX_MHZ,
) -> np.ndarray:
    """Uniform amplitude grid in rad/ns covering [0, max_mhz] cyclic MHz."""
    if not 2.0 * positive("grid step", step_mhz) <= max_mhz < math.inf:
        raise ValueError(
            f"grid must be finite and span at least two steps (3 points), got step {step_mhz}, max {max_mhz}"
        )
    n = int(math.floor(max_mhz / step_mhz + 1e-9))
    return cyclic_mhz_to_angular(step_mhz) * np.arange(n + 1, dtype=float)


def check_window(functional: str, cycles: int, gate_time: float) -> None:
    """Raise ``ValueError`` naming the value unless ``functional`` is one of
    ``FUNCTIONALS``, ``FrequencyModulation`` takes ``cycles`` and a gate takes
    ``gate_time`` ns: a scan selects for both."""
    if functional not in FUNCTIONALS:
        raise ValueError(f"unknown functional {functional!r}; choose from {', '.join(FUNCTIONALS)}")
    FrequencyModulation(cycles=cycles, gamma=0.0)
    Idle(gate_time)


@dataclass(frozen=True)
class GammaScan:
    """Record of one functional evaluated over an amplitude grid.

    ``minimum_index`` is None when no interior local minimum exists in the
    scanned range (the functional may still be falling at the upper edge).
    """

    grid: np.ndarray
    values: np.ndarray
    minimum_index: Optional[int]

    @property
    def grid_step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def found(self) -> bool:
        return self.minimum_index is not None

    @property
    def gamma_opt(self) -> Optional[float]:
        """Selected amplitude in rad/ns, or None."""
        return None if self.minimum_index is None else float(self.grid[self.minimum_index])

    @property
    def gamma_opt_mhz(self) -> Optional[float]:
        return None if self.minimum_index is None else angular_to_cyclic_mhz(self.gamma_opt)


def first_local_minimum(values) -> Optional[int]:
    """Index of the first interior strict local minimum of a sampled curve.

    A point qualifies when it is strictly below its left neighbor and
    strictly below the first following value that differs from it by more
    than ``PLATEAU_RTOL`` (relative).  A plateau of equal values bounded by
    larger ones on both sides therefore resolves to its leftmost point.
    Returns None when the curve has no interior minimum (monotone, or still
    falling at the right edge).
    """
    v = np.asarray(values, dtype=float)
    n = v.size

    def same(a: float, b: float) -> bool:
        return abs(a - b) <= PLATEAU_RTOL * max(abs(a), abs(b))

    i = 1
    while i < n - 1:
        if same(v[i], v[i - 1]) or v[i] > v[i - 1]:
            i += 1
            continue
        # Strict descent into i: walk to the end of any plateau at this level.
        j = i
        while j + 1 < n and same(v[j + 1], v[i]):
            j += 1
        if j + 1 < n and v[j + 1] > v[i]:
            return i
        i = max(j, i) + 1
    return None


def scan_gamma(
    functional: str,
    params: SystemParams,
    cycles: int,
    gate_time: float,
    *,
    grid: Optional[np.ndarray] = None,
) -> GammaScan:
    """Evaluate a named residual-coupling functional over an amplitude grid.

    Parameters
    ----------
    functional:
        One of ``FUNCTIONALS``: "fm1" (first order), "fm2-idle" or "fm2-x"
        (second order, idle and driven).
    grid:
        Amplitudes in rad/ns; defaults to :func:`default_gamma_grid`.

    The functional evaluates the whole grid in one call; the selection is a
    deterministic post-pass.
    """
    g = default_gamma_grid() if grid is None else np.asarray(grid, dtype=float)
    if g.size < 3:
        raise ValueError(f"grid needs at least 3 points, got {g.size}")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"grid must be finite, got {g[bad[0]]} at index {bad[0]}")
    steps = np.diff(g)
    if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
        raise ValueError("grid must be uniform and increasing")
    check_window(functional, cycles, gate_time)
    # Looked up per call, so that wrappers installed on the module names apply.
    named = {"fm1": epsilon_fm1, "fm2-idle": epsilon_fm2_idle, "fm2-x": epsilon_fm2_x}
    values = named[functional](params, cycles, g, gate_time)
    return GammaScan(grid=g, values=values, minimum_index=first_local_minimum(values))


def corner_averaged_fidelity(simulate: Callable[[float], object], scan: GammaScan):
    """Average a fidelity over the two grid points flanking the optimum.

    ``simulate`` maps an amplitude (rad/ns) to a fidelity, or to any value
    supporting scalar arithmetic (an array of fidelities along a gate
    sequence averages elementwise).  The functional dips are much narrower
    than the scan resolution, so the selected grid point may sit anywhere in
    the dip; the flanking points bound the realizable fidelity and their
    mean is the reported figure.
    """
    if not scan.found:
        raise ValueError("scan selected no amplitude; nothing to average around")
    lower = scan.gamma_opt - scan.grid_step
    upper = scan.gamma_opt + scan.grid_step
    if lower < 0.0:
        raise ValueError(
            f"corner point {lower} rad/ns is below zero amplitude; cannot average"
        )
    return 0.5 * (simulate(lower) + simulate(upper))
