"""Averaged-Hamiltonian error functionals for the crosstalk schemes.

Each functional is the summed magnitude of the residual coupling
coefficients in a Magnus expansion of the frame-transformed crosstalk
Hamiltonian, in rad/ns: first order is a single oscillatory integral,
second order an integral over the ordered triangle 0 <= t2 <= t1 <= T.

The FM functionals share one signature, ``(params, cycles, gammas, t_end)``:
a cycle count, a 1-D array of amplitudes in rad/ns, and the gate time; they
return one value per amplitude.  First order and the second-order idle term
are Jacobi-Anger Bessel series (Abramowitz & Stegun 9.1.41) summed over all
amplitudes at once, with every J_n(c) of a call from one table built by
Miller's backward recurrence (:func:`_bessel_table`).  The second-order
drive-coupling cross term of a driven gate builds one :class:`TriangleRule`
of ``PANELS`` panels and samples the amplitude-free parts of the integrands
once per call, then takes one amplitude at a time, so memory does not grow
with the grid.  Per amplitude it integrates e^{i phi} once to every node
(:meth:`TriangleRule.running`) and weighs that against the drive envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

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


def _bessel_order_limit(c):
    """Largest |n| kept, elementwise; J_n(c) falls below double rounding past c + O(c^(1/3))."""
    return np.ceil(c + 10.0 * c ** (1.0 / 3.0) + 25.0)


def _bessel_table(c: np.ndarray, top: int) -> np.ndarray:
    """J_n(c) for n = 0..top (rows) by Miller's backward recurrence J_{n-1} = (2n/c) J_n - J_{n+1}
    (A&S 9.1.27), normalized by J_0 + 2 sum_k J_2k = 1 (A&S 9.1.46); Numerical Recipes 6.5.
    Each amplitude starts at its own order, 20 past its order limit and set by c alone, so that a
    deeper series still reads J_n(c); it rescales alone, so a grid's columns are its single calls
    bit for bit.  Below c = 1e-100 it starts at order 0, keeping 2n/c finite (c = 0: J_0 = 1)."""
    start = np.where(c > 1e-100, np.ceil(c + 10.0 * np.cbrt(c) + 45.0), 0.0)
    first = int(start.max(initial=0.0))
    # steps[n] = 2 (n + 1) / c.  Row n adds the recurrence onto the seed 1 of the columns starting there.
    steps = np.arange(1.0, first + 2.0)[:, None] * (2.0 / np.where(start > 0, c, 1.0))
    table, evens = np.zeros((max(first, top) + 3,) + c.shape), np.zeros(c.shape)
    table[start.astype(int), np.arange(c.size)] = 1.0
    for n in range(first, -1, -1):
        table[n] += steps[n] * table[n + 1] - table[n + 2]
        # By a power of two, which is exact; one step past 2^500 (2n/c < 1e102) stays finite.
        if np.abs(table[n]).max() > 2.0**500:
            big = np.abs(table[n]) > 2.0**500
            evens[big] /= 2.0**500
            table[n:, big] /= 2.0**500
        if n % 2 == 0 and n > 0:
            evens += table[n]
    return table[: top + 1] / (table[0] + 2.0 * evens)


def _jacobi_anger(c: np.ndarray):
    """Each order n of e^{-i c cos(theta)} with its coefficients (-i)^n J_n(c), zero past each
    amplitude's own order limit, so that a grid sums as its single calls do.  One
    :func:`_bessel_table` serves every order: J_{-n} = (-1)^n J_n, so order -n has order n's
    coefficients."""
    own = _bessel_order_limit(c)
    top = int(own.max())
    orders = np.arange(top + 1)[:, None]
    coefficients = np.where(orders <= own, np.array([1.0, -1j, -1.0, 1j])[orders % 4] * _bessel_table(c, top), 0.0)
    for n in range(-top, top + 1):
        yield n, coefficients[abs(n)]


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
    total = np.zeros(c.shape, dtype=complex)
    for n, a in _jacobi_anger(c):
        m = k + n * cycles
        total += (1.0 if m == 0 and f == 0.0 else math.sin(math.pi * f) / (math.pi * (m + f))) * a
    return 2.0 * abs(params.j) * np.abs(total)


def _fm2(params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float, driven: bool):
    """Idle term in closed form, plus the ruled drive-coupling cross term of a ``driven`` gate."""
    c = gammas * t_end / (math.pi * cycles)
    k = round(params.delta * t_end / (2.0 * math.pi))
    f = params.delta * t_end / (2.0 * math.pi) - k
    squares, series, resonant = np.zeros(c.shape), np.zeros(c.shape, dtype=complex), np.zeros(c.shape)
    for n, a in _jacobi_anger(c):
        if k + n * cycles == 0:
            resonant = a
        else:
            squares += np.abs(a) ** 2 / (k + n * cycles + f)
            series += a / (k + n * cycles + f)
    x = 2.0 * math.pi * f
    # 2 pi (x - sin x) / x^2 by its Taylor series, which cancels nothing near x = 0.
    lag = 2.0 * math.pi * sum((-x * x) ** j * x / math.factorial(2 * j + 3) for j in range(15))
    total = squares - (math.sin(x) / (2.0 * math.pi)) * np.abs(series) ** 2
    total += lag * np.abs(resonant) ** 2 - 2.0 * np.sinc(2.0 * f) * (resonant.conj() * series).real
    values = (params.j**2 * t_end / (2.0 * math.pi)) * np.abs(total)
    if not driven:
        return values
    rule = TriangleRule(t_end)
    bare = params.delta * rule.points
    shape = 2.0 * FmZModulation(gamma=1.0, cycles=cycles, duration=t_end).phase(rule.points)
    omega = SineEnvelopeDrive(t_end).sample(rule.points)
    omega_running = rule.running(omega)
    g = np.empty(rule.points.size, dtype=complex)
    for i, gamma in enumerate(gammas):
        # e^{i phase} from cos and sin: np.exp(1j * phase) takes longer for
        # the same values.
        phase = bare + gamma * shape
        np.cos(phase, out=g.real)
        np.sin(phase, out=g.imag)
        cross = rule.weigh(omega, rule.running(g)) - rule.weigh(g, omega_running)
        values[i] += (abs(params.j) / t_end) * abs(cross)
    return values


def epsilon_fm2_idle(
    params: SystemParams, cycles: int, gammas: np.ndarray, t_end: float
) -> np.ndarray:
    """Second-order idle error: (J^2/T) |double integral of sin(phi1 - phi2)|.

    In :func:`epsilon_fm1`'s series, with x_n = k + n N + f and B = sum_n (-i)^n J_n(c) / x_n,
    the integral is (T^2 / 2 pi) (sum_n J_n(c)^2 / x_n - sin(2 pi f) |B|^2 / 2 pi).  An order
    with k + n N = 0, whose x_n = f may vanish, is left out of both sums and adds
    J_n(c)^2 (f - sin(2 pi f) / 2 pi) / f^2 - 2 sinc(2 f) Re(i^n J_n(c) B)."""
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
