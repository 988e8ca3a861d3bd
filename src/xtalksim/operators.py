"""Few-qubit operator algebra and exact time-ordered propagation.

Everything downstream works in angular units (rad/ns) on dense complex
matrices.  This docstring is the one account of the propagator.

A step of width h from t_n samples the Hamiltonian at the Gauss nodes
t_n + h (1/2 -+ sqrt(3)/6) and applies exp(-i h H_eff), the fourth-order
Magnus step, with the Hermitian

    H_eff = (H_1 + H_2) / 2 - i (sqrt(3) h / 12) [H_2, H_1].

It keeps its order where the Hamiltonian is smooth within each step, so
grids put step boundaries on the waveform kinks (``TimeGrid.with_max_step``).

Exponentials of one and two levels use closed forms.  Larger exponents
X = -i h H_eff are scaled by the least 2^-s that brings their 1-norm below
``THETA_8``, where the degree-8 Taylor polynomial (Paterson-Stockmeyer form,
four products) is exact to double rounding, and the polynomial is squared s
times; at the default step s = 0.  Steps are taken ``CHUNK`` at a time:
:func:`advance` exponentiates a chunk in one call, multiplies it out and
takes one Newton-Schulz step U <- U (3 - U^dag U) / 2, which removes the
norm that rounding loses and leaves a unitary U unchanged; a squared
exponential takes one too.  So propagators are unitary to machine precision
at any step size.

``propagate`` samples the dense ``(n, d, d)`` Hamiltonian.  Production runs
build the same steps in term space, in stacks of blocks and couplings
(``model`` docstring); ``propagate`` on a single-coupling assembly is their
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "SIGMA_PLUS",
    "SIGMA_MINUS",
    "TimeGrid",
    "kron",
    "embed",
    "unitarity_defect",
    "expm_hamiltonian",
    "ordered_product",
    "check_hermitian",
    "gauss_nodes",
    "advance",
    "propagate",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

# Excitation raising/lowering for basis |0>, |1> with sigma_z = diag(1, -1)
# and qubit energy term -(omega/2) sigma_z: |1> is the excited state, so the
# raising operator is |1><0|.
SIGMA_PLUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

#: Relative tolerance for Hermiticity of sampled Hamiltonians.
HERMITICITY_TOL = 1e-12

#: Largest 1-norm of an exponent X at which the degree-8 Taylor polynomial
#: of exp(X) is exact to double rounding: there its first omitted term,
#: ||X||^9 / 9!, is at most 2^-53 (Al-Mohy & Higham, SIAM J. Matrix Anal.
#: Appl. 31, 970 (2009)).
THETA_8 = (2.0**-53 * math.factorial(9)) ** (1.0 / 9.0)

#: Complex entries per sub-batch of the Taylor exponential (256 4x4 or 40
#: 10x10 matrices), which keeps its power stacks in cache.
EXPM_BATCH_ENTRIES = 4096

# Weights of I, X, X^2, X^3, X^4 in P_0 and P_1 of the Paterson-Stockmeyer
# form T_8(X) = P_0 + X^4 P_1 (SIAM J. Comput. 2, 60 (1973)).
_TAYLOR_8 = np.array(
    [[1.0 / math.factorial(k) for k in range(4)] + [0.0],
     [1.0 / math.factorial(k) for k in range(4, 9)]]
)

#: Magnus steps per chunk: sampled together, then multiplied out and
#: re-unitarized once.
CHUNK = 2048


@dataclass(frozen=True)
class TimeGrid:
    """Step grid over ``[t_start, t_end]``, uniform between breakpoints.

    Parameters
    ----------
    t_start, t_end:
        Window boundaries in ns, ``t_end > t_start``.
    n_steps:
        Total number of steps, at least 1.
    breakpoints:
        Interior ``(time, index)`` pairs: step boundary number ``index``
        sits at ``time``.  Steps are equal between consecutive breakpoints
        and the window ends; both entries increase strictly.  Empty for a
        uniform grid.
    """

    t_start: float
    t_end: float
    n_steps: int
    breakpoints: tuple[tuple[float, int], ...] = ()

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError(
                f"time grid needs t_end > t_start, got [{self.t_start}, {self.t_end}]"
            )
        if self.n_steps < 1:
            raise ValueError(f"time grid needs n_steps >= 1, got {self.n_steps}")
        times, indices = self._anchors()
        if np.any(np.diff(times) <= 0.0) or np.any(np.diff(indices) <= 0):
            raise ValueError(
                f"breakpoints must increase strictly inside the window and the step "
                f"range, got {self.breakpoints}"
            )

    @classmethod
    def with_max_step(
        cls, t_start: float, t_end: float, max_step: float, breakpoints=()
    ) -> "TimeGrid":
        """Grid with a step boundary at every breakpoint inside the window.

        Each piece between consecutive breakpoints (and the window ends)
        gets the fewest equal steps no longer than ``max_step``.  Breakpoints
        outside the window, or within 1e-9 of the window length of an end or
        of each other, are dropped.
        """
        if max_step <= 0.0:
            raise ValueError(f"step must be positive, got {max_step}")
        merge = 1e-9 * (t_end - t_start)
        knots = [t_start]
        for t in sorted(float(t) for t in breakpoints):
            if knots[-1] + merge < t < t_end - merge:
                knots.append(t)
        knots.append(t_end)
        # Tolerate float noise when a piece is an exact multiple of the step.
        counts = [
            max(int(math.ceil((b - a) / max_step - 1e-9)), 1) for a, b in zip(knots, knots[1:])
        ]
        indices = np.cumsum(counts)
        return cls(
            t_start,
            t_end,
            int(indices[-1]),
            tuple(zip(knots[1:-1], (int(k) for k in indices[:-1]))),
        )

    def _anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Times and step indices of the window ends and every breakpoint."""
        times = [self.t_start] + [t for t, _ in self.breakpoints] + [self.t_end]
        indices = [0] + [k for _, k in self.breakpoints] + [self.n_steps]
        return np.array(times, dtype=float), np.array(indices)

    @property
    def step(self) -> float:
        """Longest step of the grid."""
        times, indices = self._anchors()
        return float((np.diff(times) / np.diff(indices)).max())

    def boundaries(self) -> np.ndarray:
        """Step boundaries including both ends, shape ``(n_steps + 1,)``."""
        times, indices = self._anchors()
        return np.interp(np.arange(self.n_steps + 1), indices, times)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Complex Kronecker product of one or more 2-D matrices, first factor leftmost.

    Raises ValueError for no factors or a factor that is not 2-D.
    """
    if not factors:
        raise ValueError("kron needs at least one factor")
    mats = [np.asarray(f, dtype=complex) for f in factors]
    for m in mats:
        if m.ndim != 2:
            raise ValueError(f"kron needs 2-D factors, got shape {m.shape}")
    out = mats[0]
    for m in mats[1:]:
        # (A kron B)[i p + k, j q + l] = A[i, j] B[k, l] for B of shape (p, q).
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        )
    return out


def embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator acting on ``qubit`` of an ``n_qubits`` register.

    Qubits are labeled 1..n with qubit 1 the leftmost Kronecker factor.
    """
    if not 1 <= qubit <= n_qubits:
        raise ValueError(f"qubit label {qubit} outside register of {n_qubits}")
    factors = [IDENTITY] * n_qubits
    factors[qubit - 1] = op
    return kron(*factors)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u^dag u`` from the identity."""
    u = np.asarray(u)
    d = u.shape[-1]
    g = np.matmul(u.conj().swapaxes(-1, -2), u)
    return float(np.abs(g - np.eye(d)).max())


def expm_hamiltonian(h: np.ndarray, dt: float) -> np.ndarray:
    """``exp(-i h dt)`` of a Hermitian ``h``, exact to double rounding.

    Accepts a ``(d, d)`` matrix or a ``(..., d, d)`` stack; the method is in
    the module docstring.  Like ``eigh``, it reads the lower triangle and the
    real diagonal.

    Raises
    ------
    ValueError
        If ``h`` is not a (stack of) square matrices, or an entry it reads,
        or ``dt``, is not finite.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {h.shape}")
    if h.shape[-1] == 1:
        phase = dt * h.real
        _check_finite(phase, dt)
        return np.exp(-1j * phase)
    if h.shape[-1] == 2:
        mean = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
        z = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
        off = h[..., 1, 0]
        r = np.sqrt(z**2 + np.abs(off) ** 2)
        _check_finite(dt * (r + mean), dt)
        cos = np.cos(r * dt)
        sin_over_r = dt * np.sinc(r * dt / np.pi)
        u = np.empty(h.shape, dtype=complex)
        u[..., 0, 0] = cos - 1j * sin_over_r * z
        u[..., 1, 1] = cos + 1j * sin_over_r * z
        u[..., 0, 1] = -1j * sin_over_r * off.conj()
        u[..., 1, 0] = -1j * sin_over_r * off
        return np.exp(-1j * dt * mean)[..., None, None] * u
    d = h.shape[-1]
    flat = h.reshape(-1, d, d)
    u = np.empty_like(flat)
    size = max(EXPM_BATCH_ENTRIES // (d * d), 1)
    for start in range(0, flat.shape[0], size):
        u[start : start + size] = _expm_taylor(flat[start : start + size], dt)
    return u.reshape(h.shape)


def _check_finite(values: np.ndarray, dt: float) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"cannot exponentiate a non-finite Hamiltonian entry or step (dt={dt})")


def _expm_taylor(h: np.ndarray, dt: float) -> np.ndarray:
    """``exp(-i h dt)`` of an ``(n, d, d)`` stack by scaled Taylor polynomials."""
    n, d, _ = h.shape
    a = np.where(np.tri(d, dtype=bool), h, h.conj().swapaxes(-1, -2))
    diagonal = np.arange(d)
    a[:, diagonal, diagonal] = a[:, diagonal, diagonal].real
    # The 1-norm of a Hermitian matrix is its largest row sum.
    norms = abs(dt) * np.abs(a).sum(axis=-1).max(axis=-1)
    _check_finite(norms, dt)
    # norm / THETA_8 = m 2^e with 1/2 <= m < 1, so e is the least s with norm 2^-s < THETA_8.
    squarings = np.maximum(np.frexp(norms / THETA_8)[1], 0)
    powers = np.empty((5, n, d, d), dtype=complex)
    powers[0] = np.eye(d)
    np.multiply(a, (-1j * dt) * np.ldexp(1.0, -squarings)[:, None, None], out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    np.matmul(powers[2], powers[2], out=powers[4])
    # T_8(X) = P_0 + X^4 P_1, each P a real combination of I, X, X^2, X^3, X^4.
    p0, p1 = (_TAYLOR_8 @ powers.reshape(5, -1).view(float)).view(complex).reshape(2, n, d, d)
    u = p0 + powers[4] @ p1
    for k in range(int(squarings.max(initial=0))):
        squared = squarings > k
        u[squared] = u[squared] @ u[squared]
    squared = squarings > 0
    if squared.any():
        u[squared] = _newton_schulz(u[squared])
    return u


def _newton_schulz(u: np.ndarray) -> np.ndarray:
    """One step U <- U (3 - U^dag U) / 2 towards the nearest unitary, for a
    matrix or a stack; it leaves an exactly unitary U unchanged."""
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product ``mats[-1] @ ... @ mats[1] @ mats[0]``.

    ``mats`` is ``(n, ..., d, d)``, index n increasing in time, and the
    result ``(..., d, d)``: one product per stack entry.  It is taken pairwise
    (a balanced tree), which keeps the Python-level loop at O(log n) batched
    products; 1x1 and 2x2 ones are elementwise, free of matmul's per-matrix cost.
    """
    m = np.asarray(mats)
    if m.ndim < 3 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {m.shape}")
    entrywise = m.shape[-1] <= 2
    if entrywise:
        m = np.moveaxis(m, (-2, -1), (1, 2))
    multiply = _entrywise_matmul if entrywise else np.matmul
    while m.shape[0] > 1:
        k = m.shape[0] // 2
        combined = multiply(m[1 : 2 * k : 2], m[0 : 2 * k : 2])
        if m.shape[0] % 2:
            combined = np.concatenate([combined, m[-1:]])
        m = combined
    return np.moveaxis(m[0], (0, 1), (-2, -1)) if entrywise else m[0]


def _entrywise_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for ``(k, d, d, ...)`` stacks, as d elementwise products."""
    return sum(a[:, :, j, None] * b[:, None, j] for j in range(a.shape[1]))


def _sample_hamiltonian(h_of_t, times: np.ndarray) -> np.ndarray:
    """Evaluate ``h_of_t`` on a 1-D time array; it must return ``(n, d, d)``."""
    h = np.asarray(h_of_t(times), dtype=complex)
    if h.ndim != 3 or h.shape[0] != times.size or h.shape[1] != h.shape[2]:
        raise ValueError(
            f"h_of_t must map {times.size} times to a ({times.size}, d, d) stack, "
            f"got shape {h.shape}"
        )
    return h


def check_hermitian(h: np.ndarray, times: np.ndarray) -> None:
    """Raise ValueError naming the worst sample of ``h`` (``(n, ..., d, d)``
    at ``times``) whose Hermiticity defect exceeds ``HERMITICITY_TOL``
    relative to the batch's largest entry (at least 1)."""
    scale = max(float(np.abs(h).max()), 1.0)
    defects = np.abs(h - h.conj().swapaxes(-1, -2)).reshape(h.shape[0], -1).max(axis=1)
    worst = int(np.argmax(defects))
    if defects[worst] > HERMITICITY_TOL * scale:
        raise ValueError(
            f"non-Hermitian Hamiltonian sample at t={times[worst]:.9g} ns "
            f"(defect {defects[worst]:.3e})"
        )


def gauss_nodes(grid: TimeGrid, chunk: int):
    """Yield ``(widths, times)`` for each chunk of at most ``chunk`` steps.

    ``times`` holds the early Gauss node t_n + h (1/2 - sqrt(3)/6) of every
    step of the chunk, then the late node t_n + h (1/2 + sqrt(3)/6).
    """
    edges = grid.boundaries()
    starts, widths = edges[:-1], np.diff(edges)
    offset = math.sqrt(3.0) / 6.0
    for start in range(0, grid.n_steps, chunk):
        h_step = widths[start : start + chunk]
        t_step = starts[start : start + chunk]
        yield h_step, np.concatenate(
            [t_step + (0.5 - offset) * h_step, t_step + (0.5 + offset) * h_step]
        )


def advance(u: np.ndarray, generators: np.ndarray) -> np.ndarray:
    """``u`` carried through the steps ``exp(-i G_n)`` of one chunk.

    ``generators`` is the ``(n, ..., d, d)`` array of Hermitian G_n = h H_eff,
    time index first, and ``u`` the matching ``(..., d, d)`` propagators.
    The steps are exponentiated in one call, multiplied out and
    re-unitarized by one Newton-Schulz step (see the module docstring).
    """
    return _newton_schulz(ordered_product(expm_hamiltonian(generators, 1.0)) @ u)


def propagate(h_of_t, grid: TimeGrid) -> np.ndarray:
    """Time-ordered propagator of ``h_of_t`` over ``grid``, from dense samples.

    Takes the Magnus steps of the module docstring.  ``h_of_t`` is the
    vectorized Hamiltonian (rad/ns): it maps a 1-D array of n times (ns),
    both node sets of a chunk's steps, to the stacked ``(n, d, d)`` samples.

    Raises
    ------
    ValueError
        If ``h_of_t`` returns any other shape (the shape is named), if a
        sampled Hamiltonian is non-Hermitian (the offending time is named),
        or if its dimension changes between chunks.
    """
    u = None
    for h_step, times in gauss_nodes(grid, CHUNK):
        h = _sample_hamiltonian(h_of_t, times)
        if u is None:
            u = np.eye(h.shape[-1], dtype=complex)
        elif h.shape[-1] != u.shape[-1]:
            raise ValueError(
                f"Hamiltonian dimension changed from {u.shape[-1]} to {h.shape[-1]} "
                f"at t={times[0]}"
            )
        check_hermitian(h, times)
        h1, h2 = h[: h_step.size], h[h_step.size :]
        width = h_step[:, None, None]
        # [H_2, H_1] = C - C^dag with C = H_2 H_1, so -i [H_2, H_1] is Hermitian.
        c = h2 @ h1
        commutator = c - c.conj().swapaxes(-1, -2)
        h_eff = 0.5 * (h1 + h2) - (1j * math.sqrt(3.0) / 12.0) * width * commutator
        u = advance(u, width * h_eff)
    return u
