"""Averaged-Hamiltonian error functionals for the crosstalk schemes.

Each functional is the summed magnitude of the residual coupling
coefficients in a Magnus expansion of the frame-transformed crosstalk
Hamiltonian, in rad/ns.  First-order functionals are single oscillatory
integrals; second-order ones are integrals over the ordered triangle
0 <= t2 <= t1 <= T.

Triangle integrals are evaluated by composite Gauss-Legendre quadrature:
the kernels factor into products u(t1) v(t2), so the inner integral becomes
a running integral of v computed on the same node family (panel prefix sums
plus an in-panel partial rule per node), and the outer integral is the
ordinary composite rule.  Doubling the node count is the standard
convergence check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from xtalksim.model import FrequencyModulation, SystemParams, coupling_phase
from xtalksim.pulses import SineEnvelopeDrive

__all__ = [
    "QuadratureConfig",
    "SecondOrderForms",
    "epsilon_fm1",
    "epsilon_fm2_idle",
    "epsilon_fm2_x",
    "epsilon_fm2_parallel_xx",
    "epsilon_dd1",
    "epsilon_dd2_numeric",
    "dd_second_order_closed_forms",
    "ordered_double_integral",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre layout for the triangle integrals.

    ``nodes_per_axis`` total nodes split into panels of ``panel_order``
    points each.  The defaults resolve every waveform in scope with orders
    of magnitude to spare; ``doubled()`` supports convergence checks.
    """

    nodes_per_axis: int = 2048
    panel_order: int = 16

    def __post_init__(self):
        if self.panel_order < 2:
            raise ValueError(f"panel order must be >= 2, got {self.panel_order}")
        if self.nodes_per_axis < self.panel_order or self.nodes_per_axis % self.panel_order:
            raise ValueError(
                f"nodes_per_axis must be a positive multiple of panel_order, "
                f"got {self.nodes_per_axis} / {self.panel_order}"
            )

    @property
    def panels(self) -> int:
        return self.nodes_per_axis // self.panel_order

    def doubled(self) -> "QuadratureConfig":
        return QuadratureConfig(2 * self.nodes_per_axis, self.panel_order)

    def with_panels_multiple_of(self, k: int) -> "QuadratureConfig":
        """Smallest config >= this one whose panel count is a multiple of k."""
        panels = self.panels
        if panels % k:
            panels += k - panels % k
        return QuadratureConfig(panels * self.panel_order, self.panel_order)


DEFAULT_QUADRATURE = QuadratureConfig()


def ordered_double_integral(outer, inner, t_end: float, config: QuadratureConfig = DEFAULT_QUADRATURE):
    """Integral of ``outer(t1) * inner(t2)`` over ``0 <= t2 <= t1 <= t_end``.

    ``outer`` and ``inner`` must accept a time array and return values of
    matching shape (real or complex).
    """
    x, w = leggauss(config.panel_order)
    edges = np.linspace(0.0, t_end, config.panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x[None, :]
    weights = half * w[None, :]

    f_inner = np.asarray(inner(nodes.ravel())).reshape(nodes.shape)
    panel_totals = (weights * f_inner).sum(axis=1)
    prefix = np.concatenate([[0.0], np.cumsum(panel_totals)[:-1]])

    # Partial integral of `inner` from each panel edge to each node, using a
    # scaled rule of the same order inside [a_p, node].
    sub_half = 0.5 * (nodes - edges[:-1][:, None])
    sub_nodes = (edges[:-1][:, None] + sub_half)[..., None] + sub_half[..., None] * x
    sub_weights = sub_half[..., None] * w
    f_sub = np.asarray(inner(sub_nodes.ravel())).reshape(sub_nodes.shape)
    running = prefix[:, None] + (sub_weights * f_sub).sum(axis=-1)

    f_outer = np.asarray(outer(nodes.ravel())).reshape(nodes.shape)
    return (weights * f_outer * running).sum()


def epsilon_fm1(params: SystemParams, fm: FrequencyModulation, t_end: float) -> float:
    """First-order residual coupling under frequency modulation.

    2 |(J/T) integral_0^T e^{i phi(t)} dt| with phi = Delta t + 2 alpha(t),
    by adaptive quadrature of the two real components.
    """
    phi = coupling_phase(params, fm.modulation(t_end))
    re, _ = quad(lambda t: math.cos(phi(t)), 0.0, t_end, limit=400, epsabs=1e-12, epsrel=1e-10)
    im, _ = quad(lambda t: math.sin(phi(t)), 0.0, t_end, limit=400, epsabs=1e-12, epsrel=1e-10)
    return 2.0 * abs(params.j / t_end) * math.hypot(re, im)


def epsilon_fm2_idle(
    params: SystemParams,
    fm: FrequencyModulation,
    t_end: float,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Second-order idle error: (J^2/T) |double integral of sin(phi1 - phi2)|."""
    phi = coupling_phase(params, fm.modulation(t_end))
    val = ordered_double_integral(
        lambda t: np.exp(1j * phi(t)), lambda t: np.exp(-1j * phi(t)), t_end, config
    )
    return (params.j**2 / t_end) * abs(val.imag)


def epsilon_fm2_x(
    params: SystemParams,
    fm: FrequencyModulation,
    t_end: float,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Second-order error of a driven X gate under modulation.

    Adds to the idle term the drive-coupling cross term
    2 |(iJ/2T) double integral of (Omega(t1) e^{i phi(t2)} - Omega(t2) e^{i phi(t1)})|.
    """
    phi = coupling_phase(params, fm.modulation(t_end))
    omega = SineEnvelopeDrive.x_gate(t_end).sample
    g = lambda t: np.exp(1j * phi(t))
    cross = ordered_double_integral(omega, g, t_end, config) - ordered_double_integral(
        g, omega, t_end, config
    )
    return (abs(params.j) / t_end) * abs(cross) + epsilon_fm2_idle(params, fm, t_end, config)


def epsilon_fm2_parallel_xx(
    params: SystemParams,
    fm: FrequencyModulation,
    t_end: float,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Second-order error of simultaneous X gates on both qubits.

    The two drive cross terms are equal by symmetry and the idle term is
    shared: eps_xx = 2 eps_x - eps_idle.
    """
    return 2.0 * epsilon_fm2_x(params, fm, t_end, config) - epsilon_fm2_idle(
        params, fm, t_end, config
    )


def epsilon_dd1(params: SystemParams, segments: int, t_end: float) -> float:
    """First-order residual coupling under a Z-pulse train, in closed form.

    2 |(J/T) sum_s (-1)^{s-1} (e^{i Delta s tau} - e^{i Delta (s-1) tau}) / (i Delta)|
    with tau = T/segments.  Vanishes at every matched time for even segment
    counts.
    """
    if segments < 1:
        raise ValueError(f"segment count must be >= 1, got {segments}")
    tau = t_end / segments
    s = np.arange(1, segments + 1)
    signs = (-1.0) ** (s - 1)
    increments = np.exp(1j * params.delta * s * tau) - np.exp(1j * params.delta * (s - 1) * tau)
    total = (signs * increments).sum() / (1j * params.delta)
    return 2.0 * abs(params.j / t_end) * abs(total)


def _segment_sign(tau: float, segments: int):
    def signs(t):
        s = np.minimum(np.floor(np.asarray(t) / tau).astype(int), segments - 1)
        return (-1.0) ** s

    return signs


def epsilon_dd2_numeric(
    params: SystemParams,
    segments: int,
    t_end: float,
    config: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Second-order idle error under an ideal Z-pulse train, by quadrature.

    (J^2/T) |double integral of f(t1) f(t2) sin(Delta (t1 - t2))| with f the
    per-segment sign flip.  Panels are aligned to segment boundaries so the
    discontinuous sign never crosses a panel.
    """
    cfg = config.with_panels_multiple_of(segments)
    tau = t_end / segments
    f = _segment_sign(tau, segments)
    g = lambda t: f(t) * np.exp(1j * params.delta * np.asarray(t))
    gc = lambda t: f(t) * np.exp(-1j * params.delta * np.asarray(t))
    val = ordered_double_integral(g, gc, t_end, cfg)
    return (params.j**2 / t_end) * abs(val.imag)


@dataclass(frozen=True)
class SecondOrderForms:
    """Closed-form second-order errors: bare crosstalk vs. decoupled."""

    crosstalk_only: float
    decoupled: float

    @property
    def ratio(self) -> float:
        return self.decoupled / self.crosstalk_only


def dd_second_order_closed_forms(params: SystemParams, gate_kind: str = "idle") -> SecondOrderForms:
    """Matched-time second-order errors with and without the Z-pulse train.

    ``gate_kind`` is ``"idle"``, ``"x"`` or ``"parallel_xx"``; driven gates
    add one drive-coupling term 2|J/4| per driven qubit, identical in both
    columns.
    """
    base_cd = 2.0 * abs(params.j**2 / (2.0 * params.delta))
    base_dd = 2.0 * abs((math.pi - 4.0) / (2.0 * math.pi) * params.j**2 / params.delta)
    drive_terms = {"idle": 0, "x": 1, "parallel_xx": 2}
    try:
        n_drives = drive_terms[gate_kind]
    except KeyError:
        raise ValueError(f"unknown gate kind {gate_kind!r}; expected one of {sorted(drive_terms)}")
    extra = n_drives * 2.0 * abs(params.j / 4.0)
    return SecondOrderForms(crosstalk_only=base_cd + extra, decoupled=base_dd + extra)
