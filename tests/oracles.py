"""Independent forms of library quantities, slow and meant for comparison only.

The library sums first order and the second-order idle term as Bessel
series, and evaluates the X functional's drive cross term on a 512-node
triangle rule built once per scan.  These references take neither
shortcut: first order is adaptive quadrature of the phase integral, and
second order is a composite Gauss-Legendre triangle rule (2,048 nodes per
axis unless given) rebuilt and resampled for every amplitude.  The
exchange matrix of a layout is built from Kronecker products, where the
library sets bits.  A run of k gates is one uninterrupted assembly at
absolute time, where the library advances one gate's coupling phase.
Propagators come from dense samples of the Hamiltonian, with the
commutator of the Magnus step formed on them and each step exponentiated
by ``eigh``, where the library contracts term-space weights and sums
Taylor polynomials.
"""

import dataclasses
import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad

from xtalksim.model import coupling_phase
from xtalksim.operators import IDENTITY
from xtalksim.pulses import SineEnvelopeDrive

#: Magnus steps per batch of dense samples, a few MB for the star.
STEPS_PER_BATCH = 256

# Excitation raising/lowering for basis |0>, |1> with sigma_z = diag(1, -1)
# and qubit energy term -(omega/2) sigma_z: |1> is the excited state, so the
# raising operator is |1><0|.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

NODES_PER_AXIS = 2048
PANEL_ORDER = 16


def ordered_double_integral(outer, inner, t_end, nodes_per_axis=NODES_PER_AXIS):
    """Integral of outer(t1) inner(t2) over 0 <= t2 <= t1 <= t_end."""
    x, w = leggauss(PANEL_ORDER)
    edges = np.linspace(0.0, t_end, nodes_per_axis // PANEL_ORDER + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * x[None, :]
    weights = half * w[None, :]

    f_inner = np.asarray(inner(nodes.ravel())).reshape(nodes.shape)
    panel_totals = (weights * f_inner).sum(axis=1)
    prefix = np.concatenate([[0.0], np.cumsum(panel_totals)[:-1]])

    # Partial integral of `inner` from each panel edge to each node, by a
    # scaled rule of the same order inside [a_p, node].
    sub_half = 0.5 * (nodes - edges[:-1][:, None])
    sub_nodes = (edges[:-1][:, None] + sub_half)[..., None] + sub_half[..., None] * x
    sub_weights = sub_half[..., None] * w
    f_sub = np.asarray(inner(sub_nodes.ravel())).reshape(sub_nodes.shape)
    running = prefix[:, None] + (sub_weights * f_sub).sum(axis=-1)

    f_outer = np.asarray(outer(nodes.ravel())).reshape(nodes.shape)
    return (weights * f_outer * running).sum()


def fm1(params, fm, t_end):
    """2 |(J/T) integral_0^T e^{i phi(t)} dt| by adaptive quadrature."""
    phi = coupling_phase(params, fm.modulation(t_end))
    re, _ = quad(lambda t: math.cos(phi(t)), 0.0, t_end, limit=400, epsabs=1e-12, epsrel=1e-10)
    im, _ = quad(lambda t: math.sin(phi(t)), 0.0, t_end, limit=400, epsabs=1e-12, epsrel=1e-10)
    return 2.0 * abs(params.j / t_end) * math.hypot(re, im)


def fm2_idle(params, fm, t_end, nodes_per_axis=NODES_PER_AXIS):
    """(J^2/T) |double integral of sin(phi1 - phi2)|."""
    phi = coupling_phase(params, fm.modulation(t_end))
    val = ordered_double_integral(
        lambda t: np.exp(1j * phi(t)), lambda t: np.exp(-1j * phi(t)), t_end, nodes_per_axis
    )
    return (params.j**2 / t_end) * abs(val.imag)


def fm2_x(params, fm, t_end, nodes_per_axis=NODES_PER_AXIS):
    """Idle term plus the X-drive cross term of a driven gate."""
    phi = coupling_phase(params, fm.modulation(t_end))
    omega = SineEnvelopeDrive(t_end).sample
    g = lambda t: np.exp(1j * phi(t))
    cross = ordered_double_integral(omega, g, t_end, nodes_per_axis) - ordered_double_integral(
        g, omega, t_end, nodes_per_axis
    )
    return (abs(params.j) / t_end) * abs(cross) + fm2_idle(params, fm, t_end, nodes_per_axis)


def flip_flop(topology):
    """Sum over edges (q, c) of sigma_q^+ sigma_c^-, one Kronecker product per edge."""
    out = np.zeros((2**topology.n_qubits,) * 2, dtype=complex)
    for q, c in topology.edges:
        factors = [IDENTITY] * topology.n_qubits
        factors[q - 1] = SIGMA_PLUS
        factors[c - 1] = SIGMA_MINUS
        out += functools.reduce(np.kron, factors)
    return out


def gate_run(h, repetitions):
    """The uninterrupted run of ``repetitions`` gates ``h`` (a one-gate assembly
    in the modulated frame), over [0, k T + tail].

    The coupling phase stays a function of absolute time, each control is
    the sum of its k copies shifted by whole gates, and the breakpoints are
    the union of the shifted ones.
    """
    shifts = h.gate_time * np.arange(repetitions)

    def repeated(coeff):
        return lambda t: sum(coeff(t - s) for s in shifts)

    return dataclasses.replace(
        h,
        controls=tuple((name, repeated(c), m) for name, c, m in h.controls),
        gate_time=repetitions * h.gate_time,
        breakpoints=tuple(sorted({b + s for b in h.breakpoints for s in shifts})),
    )


def hamiltonian(h, t):
    """Dense samples sum_k c_k(t) M_k of the one-coupling assembly ``h``, at a
    time (``(d, d)``) or at the 1-D times ``t`` (``(n, d, d)``)."""
    if len(h.couplings) != 1:
        raise ValueError(f"dense samples need one coupling, got {len(h.couplings)}")
    tt = np.asarray(t, dtype=float)
    matrices = np.array([*h.topology.exchange, *(m for _, _, m in h.controls)])
    out = np.einsum("nk,kij->nij", h.coefficients(np.atleast_1d(tt))[:, 0], matrices)
    return out[0] if tt.ndim == 0 else out


def expm_hermitian(h, dt):
    """exp(-i dt h) of a Hermitian ``(..., d, d)`` stack, by eigendecomposition."""
    energies, states = np.linalg.eigh(h)
    return (states * np.exp(-1j * np.multiply(dt, energies))[..., None, :]) @ states.conj().swapaxes(-1, -2)


def checked_samples(sample, times):
    """``sample(times)`` as a complex ``(n, d, d)`` stack of Hermitian matrices, else ValueError."""
    h = np.asarray(sample(times), dtype=complex)
    if h.ndim != 3 or h.shape[0] != times.size or h.shape[1] != h.shape[2]:
        raise ValueError(f"samples of {times.size} times must be ({times.size}, d, d), got shape {h.shape}")
    defects = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(1, 2))
    worst = int(np.argmax(defects))
    if defects[worst] > 1e-12 * max(float(np.abs(h).max()), 1.0):
        raise ValueError(f"non-Hermitian sample at t={times[worst]:.9g} ns (defect {defects[worst]:.3e})")
    return h


def propagate(h, edges):
    """Time-ordered propagator over the steps between the boundaries ``edges``,
    from dense samples: of an assembly of one coupling (``hamiltonian``), or of
    a callable mapping a 1-D array of times to ``(n, d, d)`` Hamiltonians.

    A step of width w from t samples H_1, H_2 at t + w (1/2 -+ sqrt(3)/6) and
    applies exp(-i w H_eff), H_eff = (H_1 + H_2)/2 - i (sqrt(3) w/12) [H_2, H_1],
    the fourth-order Magnus step; each batch of steps ends on the polar factor
    of the product, which removes the norm that rounding loses.

    ``eigh`` reads one triangle of each step, so a malformed input raises
    ValueError instead of propagating: boundaries that are not a finite,
    strictly increasing 1-D array of at least two times, samples of any
    shape but ``(n, d, d)`` (the shape is named), or a sample that is not
    Hermitian to 1e-12 of the batch's largest entry (the time is named).
    """
    sample = functools.partial(hamiltonian, h) if hasattr(h, "coefficients") else h
    edges = np.asarray(edges, dtype=float)
    if not (edges.ndim == 1 and edges.size >= 2 and np.isfinite(edges).all() and (np.diff(edges) > 0).all()):
        raise ValueError(f"step boundaries must be finite, strictly increasing and 1-D, got {edges!r}")
    offset = math.sqrt(3.0) / 6.0
    u = None
    for start in range(0, edges.size - 1, STEPS_PER_BATCH):
        t = edges[start : start + STEPS_PER_BATCH + 1]
        w = np.diff(t)
        h1, h2 = (checked_samples(sample, t[:-1] + (0.5 + s) * w) for s in (-offset, offset))
        h_eff = 0.5 * (h1 + h2) - 1j * (math.sqrt(3.0) / 12.0) * w[:, None, None] * (h2 @ h1 - h1 @ h2)
        if u is None:
            u = np.eye(h1.shape[-1], dtype=complex)
        for step in expm_hermitian(h_eff, w[:, None]):
            u = step @ u
        left, _, right = np.linalg.svd(u)
        u = left @ right
    return u
