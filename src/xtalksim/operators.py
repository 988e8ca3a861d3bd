"""Few-qubit operator algebra and exact time-ordered propagation.

Everything downstream works in angular units (rad/ns) on dense complex
matrices.  Propagation takes fourth-order Magnus steps: each step samples
the Hamiltonian at its two Gauss nodes and applies exp(-i h H_eff), with
H_eff the nodes' mean plus their commutator correction, computed exactly
through the Hermitian eigendecomposition (in closed form for two-level
blocks), so every step is unitary to machine precision regardless of step
size.  Step grids are uniform between breakpoints, which callers put on
the kinks of the drive waveforms; the rule keeps its fourth order only on
such aligned grids.

``propagate`` is dense: it samples whatever ``(n, d, d)`` stack ``h_of_t``
returns and builds each step's generator from the samples.  Production runs
do not call it: ``SymmetryBlocks.propagate`` in ``model`` builds the same
steps in term space, from sampled coefficients and precomputed term
commutators, block by block.  Both end every chunk in :func:`advance`
(exponential, ordered product, Newton-Schulz step), and ``propagate`` on the
full assembly is the oracle the blocks are tested and verified against.
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
    "hermiticity_defect",
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

#: Unitarity defect allowed for any propagator this module returns.
UNITARITY_TOL = 1e-10

#: Relative tolerance for Hermiticity of sampled Hamiltonians.
HERMITICITY_TOL = 1e-12

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

    def halved(self) -> "TimeGrid":
        """Same window and breakpoints with every step halved (for convergence checks)."""
        return TimeGrid(
            self.t_start,
            self.t_end,
            2 * self.n_steps,
            tuple((t, 2 * k) for t, k in self.breakpoints),
        )


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, first factor leftmost."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
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


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of ``m`` from its conjugate transpose."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().swapaxes(-1, -2)).max())


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u^dag u`` from the identity."""
    u = np.asarray(u)
    d = u.shape[-1]
    g = np.matmul(u.conj().swapaxes(-1, -2), u)
    return float(np.abs(g - np.eye(d)).max())


def expm_hamiltonian(h: np.ndarray, dt: float) -> np.ndarray:
    """Exact ``exp(-i h dt)`` of a Hermitian ``h`` via eigendecomposition.

    Accepts a single ``(d, d)`` matrix or a stacked ``(..., d, d)`` batch;
    the exponential is applied matrix by matrix.  Like ``eigh``, it reads
    the lower triangle and the real diagonal.

    Two-level matrices use the closed form
    ``e^{-i a dt} (cos(r dt) - i sin(r dt) n.sigma)``: LAPACK returns the
    eigenvectors of an exchange-only block ``[[0, b], [b*, 0]]`` slightly
    short of unit norm, which shrinks a 10^4-step product by about 1e-12.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape[-1] == 2:
        mean = 0.5 * (h[..., 0, 0] + h[..., 1, 1]).real
        z = 0.5 * (h[..., 0, 0] - h[..., 1, 1]).real
        off = h[..., 1, 0]
        r = np.sqrt(z**2 + np.abs(off) ** 2)
        cos = np.cos(r * dt)
        sin_over_r = dt * np.sinc(r * dt / np.pi)
        u = np.empty(h.shape, dtype=complex)
        u[..., 0, 0] = cos - 1j * sin_over_r * z
        u[..., 1, 1] = cos + 1j * sin_over_r * z
        u[..., 0, 1] = -1j * sin_over_r * off.conj()
        u[..., 1, 0] = -1j * sin_over_r * off
        return np.exp(-1j * dt * mean)[..., None, None] * u
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * dt * w)
    return np.matmul(v * phase[..., None, :], v.conj().swapaxes(-1, -2))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product ``mats[-1] @ ... @ mats[1] @ mats[0]``.

    ``mats`` is a stack ``(n, d, d)`` with index increasing in time.  The
    product is taken pairwise (a balanced tree), which keeps the Python-level
    loop at O(log n) batched matmuls.
    """
    m = np.asarray(mats)
    if m.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got shape {m.shape}")
    while m.shape[0] > 1:
        k = m.shape[0] // 2
        combined = np.matmul(m[1 : 2 * k : 2], m[0 : 2 * k : 2])
        if m.shape[0] % 2:
            combined = np.concatenate([combined, m[-1:]])
        m = combined
    return m[0]


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
    """Raise ValueError naming the worst sample of ``h`` (``(n, d, d)`` at
    ``times``) whose Hermiticity defect exceeds ``HERMITICITY_TOL`` relative
    to the batch's largest entry (at least 1)."""
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

    ``generators`` is the ``(n, d, d)`` stack of Hermitian G_n = h H_eff in
    time order.  The running product then takes one Newton-Schulz step,
    U <- U (3 - U^dag U) / 2, which removes the norm the eigendecompositions
    lose and leaves an exactly unitary U unchanged.
    """
    u = ordered_product(expm_hamiltonian(generators, 1.0)) @ u
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (u.conj().T @ u))


def propagate(h_of_t, grid: TimeGrid, *, chunk: int = CHUNK) -> np.ndarray:
    """Time-ordered propagator of ``h_of_t`` over ``grid``, from dense samples.

    Each step of width h from t_n is the fourth-order Magnus step at the two
    Gauss nodes t_n + h (1/2 -+ sqrt(3)/6):

        exp(-i h H_eff),  H_eff = (H_1 + H_2) / 2 - i (sqrt(3) h / 12) [H_2, H_1],

    which is unitary by construction.  Its error is fourth order in h where
    ``h_of_t`` is smooth within each step, so grids should put step
    boundaries on the Hamiltonian's kinks (``TimeGrid.with_max_step`` with
    breakpoints).  Each chunk ends with the Newton-Schulz step of
    :func:`advance`.

    Parameters
    ----------
    h_of_t:
        Vectorized Hamiltonian (rad/ns): takes a 1-D array of n times (ns)
        and returns the stacked ``(n, d, d)`` samples.  It is called once per
        chunk, on both node sets of the chunk's steps together.
    grid:
        Step grid.

    Raises
    ------
    ValueError
        If ``h_of_t`` returns any other shape (the shape is named), if a
        sampled Hamiltonian is non-Hermitian (the offending time is named),
        or if its dimension changes between chunks.
    """
    u = None
    for h_step, times in gauss_nodes(grid, chunk):
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
