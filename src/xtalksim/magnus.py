"""Averaged-Hamiltonian error functionals for the crosstalk schemes.

Each functional is the summed magnitude of the residual coupling
coefficients in a Magnus expansion of the frame-transformed crosstalk
Hamiltonian, in rad/ns: first order is a single oscillatory integral,
second order an integral over the ordered triangle 0 <= t2 <= t1 <= T.

The FM functionals share one signature, ``(params, cycles, gammas, t_end)``:
a cycle count, a 1-D array of amplitudes in rad/ns, and the gate time; they
return one value per amplitude.  First order is a Jacobi-Anger Bessel series
(Abramowitz & Stegun 9.1.41) summed over all amplitudes at once.  Second
order builds one :class:`TriangleRule` of ``PANELS`` panels and samples the
amplitude-free parts of the integrands once per call, then takes one
amplitude at a time, so memory does not grow with the grid.  Per amplitude
it integrates e^{i phi} once to every node (:meth:`TriangleRule.running`)
and weighs that, and its conjugate, in each term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import jv

from xtalksim.model import SystemParams
from xtalksim.operators import positive_int
from xtalksim.pulses import FmZModulation, SineEnvelopeDrive

__all__ = [
    "PANELS",
    "PANEL_ORDER",
    "SecondOrderForms",
    "TriangleRule",
    "epsilon_fm1",
    "epsilon_fm2_idle",
    "epsilon_fm2_x",
    "epsilon_dd1",
    "epsilon_dd2_numeric",
    "dd_second_order_closed_forms",
]


#: Gauss-Legendre panels per axis of the triangle rule, and points per panel:
#: 512 nodes per axis, whose doubled rule agrees to about 1e-13 relative.
PANELS = 32
PANEL_ORDER = 16


class TriangleRule:
    """Composite Gauss-Legendre rule on 0 <= t2 <= t1 <= t_end.

    Both factors of a kernel outer(t1) inner(t2) are sampled at ``points``:
    the panel nodes, then per node the sub-nodes of the same-order rule on
    [panel start, node], which give inner's running integral to that node.
    """

    def __init__(self, t_end: float, panels: int = PANELS):
        x, self._w = leggauss(PANEL_ORDER)
        edges = np.linspace(0.0, t_end, panels + 1)
        self._half = 0.5 * (edges[1:] - edges[:-1])
        nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + self._half[:, None] * x
        sub_half = 0.5 * (nodes - edges[:-1, None])
        sub_nodes = (edges[:-1, None] + sub_half)[..., None] + sub_half[..., None] * x
        self._sub_half = sub_half.ravel()
        self._weights = (self._half[:, None] * self._w).ravel()
        self.points = np.concatenate([nodes.ravel(), sub_nodes.ravel()])

    def running(self, inner: np.ndarray) -> np.ndarray:
        """Integral of ``inner`` from 0 to each panel node.  The weights are
        real, so the conjugate of ``inner`` gives the conjugate, bit for bit."""
        n, m = self._weights.size, self._w.size
        panel_totals = self._half * np.einsum("pi,i->p", inner[:n].reshape(-1, m), self._w)
        prefix = np.concatenate([[0.0], np.cumsum(panel_totals)[:-1]])
        partial = self._sub_half * np.einsum("ni,i->n", inner[n:].reshape(n, m), self._w)
        return np.repeat(prefix, m) + partial

    def weigh(self, outer: np.ndarray, running: np.ndarray):
        """The double integral of ``outer`` against an inner factor whose
        :meth:`running` integral is given."""
        return (self._weights * outer[: self._weights.size] * running).sum()

    def integrate(self, outer: np.ndarray, inner: np.ndarray):
        return self.weigh(outer, self.running(inner))


def _bessel_order_limit(c: float) -> int:
    """Largest |n| kept; J_n(c) falls below double rounding past c + O(c^(1/3))."""
    return math.ceil(c + 10.0 * c ** (1.0 / 3.0) + 25.0)


def epsilon_fm1(params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float) -> np.ndarray:
    """First-order residual coupling under frequency modulation, per amplitude.

    2 |(J/T) integral_0^T e^{i phi} dt| with phi = Delta t + c (1 - cos(w t)),
    c = gamma T / (pi N), w = 2 pi N / T.  Jacobi-Anger order n, (-i)^n J_n(c)
    e^{i (Delta + n w) t}, integrates to T sin(pi f) / (pi (k + n N + f)) up to
    a common phase, Delta T / 2 pi = k + f with k the nearest integer; exactly T
    at resonance (Delta + n w = 0).
    """
    c = gammas * t_end / (math.pi * cycles)
    k = round(params.delta * t_end / (2.0 * math.pi))
    f = params.delta * t_end / (2.0 * math.pi) - k
    limit = _bessel_order_limit(float(c.max()))
    total = np.zeros(c.shape, dtype=complex)
    for n in range(-limit, limit + 1):
        m = k + n * cycles
        weight = 1.0 if m == 0 and f == 0.0 else math.sin(math.pi * f) / (math.pi * (m + f))
        total += ((1.0, -1j, -1.0, 1j)[n % 4] * weight) * jv(n, c)
    return 2.0 * abs(params.j) * np.abs(total)


def _fm2(params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float, driven: bool):
    """Idle term, plus the drive-coupling cross term of a ``driven`` gate, per amplitude."""
    rule = TriangleRule(t_end)
    bare = params.delta * rule.points
    shape = 2.0 * FmZModulation(gamma=1.0, cycles=cycles, duration=t_end).phase(rule.points)
    omega = SineEnvelopeDrive(t_end).sample(rule.points)
    omega_running = rule.running(omega)
    values = np.empty(gammas.size)
    g = np.empty(rule.points.size, dtype=complex)
    for i, gamma in enumerate(gammas):
        # e^{i phase} from cos and sin: np.exp(1j * phase) takes longer for
        # the same values.
        phase = bare + gamma * shape
        np.cos(phase, out=g.real)
        np.sin(phase, out=g.imag)
        g_running = rule.running(g)
        values[i] = (params.j**2 / t_end) * abs(rule.weigh(g, g_running.conj()).imag)
        if driven:
            cross = rule.weigh(omega, g_running) - rule.weigh(g, omega_running)
            values[i] += (abs(params.j) / t_end) * abs(cross)
    return values


def epsilon_fm2_idle(
    params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float
) -> np.ndarray:
    """Second-order idle error: (J^2/T) |double integral of sin(phi1 - phi2)|."""
    return _fm2(params, cycles, gammas, t_end, driven=False)


def epsilon_fm2_x(
    params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float
) -> np.ndarray:
    """Second-order error of a driven X gate under modulation.

    Adds to the idle term the drive-coupling cross term
    2 |(iJ/2T) double integral of (Omega(t1) e^{i phi(t2)} - Omega(t2) e^{i phi(t1)})|.
    """
    return _fm2(params, cycles, gammas, t_end, driven=True)


def epsilon_dd1(params: SystemParams, segments: int, t_end: float) -> float:
    """First-order residual coupling under a Z-pulse train, in closed form.

    2 |(J/T) sum_s (-1)^{s-1} (e^{i Delta s tau} - e^{i Delta (s-1) tau}) / (i Delta)|
    with tau = T/segments.  Vanishes at every matched time for even segment
    counts.
    """
    tau = t_end / positive_int("segment count", segments)
    s = np.arange(1, segments + 1)
    signs = (-1.0) ** (s - 1)
    increments = np.exp(1j * params.delta * s * tau) - np.exp(1j * params.delta * (s - 1) * tau)
    total = (signs * increments).sum() / (1j * params.delta)
    return 2.0 * abs(params.j / t_end) * abs(total)


def epsilon_dd2_numeric(params: SystemParams, segments: int, t_end: float) -> float:
    """Second-order idle error under an ideal Z-pulse train, by quadrature.

    (J^2/T) |double integral of f(t1) f(t2) sin(Delta (t1 - t2))| with f the
    per-segment sign flip.  The panel count is rounded up to a multiple of
    ``segments``, so the discontinuous sign never crosses a panel.
    """
    tau = t_end / positive_int("segment count", segments)
    sign = lambda t: (-1.0) ** np.minimum(np.floor(t / tau), segments - 1)
    rule = TriangleRule(t_end, math.ceil(PANELS / segments) * segments)
    g = sign(rule.points) * np.exp(1j * params.delta * rule.points)
    return (params.j**2 / t_end) * abs(rule.integrate(g, g.conj()).imag)


@dataclass(frozen=True)
class SecondOrderForms:
    """Closed-form second-order errors: bare crosstalk vs. decoupled."""

    crosstalk_only: float
    decoupled: float

    @property
    def ratio(self) -> float:
        return self.decoupled / self.crosstalk_only


def dd_second_order_closed_forms(params: SystemParams) -> SecondOrderForms:
    """Matched-time second-order idle errors with and without the Z-pulse train."""
    base_cd = 2.0 * abs(params.j**2 / (2.0 * params.delta))
    base_dd = 2.0 * abs((math.pi - 4.0) / (2.0 * math.pi) * params.j**2 / params.delta)
    return SecondOrderForms(crosstalk_only=base_cd, decoupled=base_dd)
