"""Few-qubit operator algebra and exact time-ordered propagation.

Everything downstream works in angular units (rad/ns) on dense complex
matrices.  This docstring is the one account of the propagator.

A step of width h from t_n samples the Hamiltonian at the Gauss nodes
t_n + h (1/2 -+ sqrt(3)/6) and applies exp(-i h H_eff), the fourth-order
Magnus step, with the Hermitian

    H_eff = (H_1 + H_2) / 2 - i (sqrt(3) h / 12) [H_2, H_1].

It keeps its order where the Hamiltonian is smooth within each step, so
grids put step boundaries on the waveform kinks: ``step_boundaries`` returns
that array of boundaries, and block propagation builds it itself.

Propagation steps of one and two levels, X = -i (g_0 I + g . sigma), are a
phase, summed over a chunk in extended precision, times
[[a, -b*], [b, a*]] with a = cos r - i g_3 sinc r, b = (g_2 - i g_1) sinc r
and r = |g|, multiplied as (a, b) pairs along an innermost time axis
(:func:`_pauli_product`).  Larger exponents are held in the real form
E(A) = [[Re A, -Im A], [Im A, Re A]], float64 2d x 2d, and multiplied with
plain matmul: E is an exact algebra map with E(A^dag) = E(A)^T, so all that
follows runs unchanged on it, and A is read back from E(A)'s first block
column.  Exponents are scaled by the least 2^-s that brings an upper bound
on their 1-norm below ``THETA_8``, where the degree-8 Taylor polynomial is
exact to double rounding, and the polynomial is squared s times; at the
default step s is almost always 0.  It takes three products, X_2 = X X,
X_4 = X_2 (a_1 X + a_2 X_2) and
T_8(X) = I + X + b_2 X_2 + (a_3 X_2 + X_4)(a_4 I + a_5 X + a_6 X_2 + a_7 X_4)
(Bader, Blanes & Casas, Mathematics 7, 1174 (2019)), ``EXPM_BATCH_ENTRIES``
complex entries at a time in one workspace, each finished sub-batch passed
straight on.  :func:`advance` takes a chunk of steps (``chunk_steps``: at
most ``CHUNK`` steps and ``CHUNK_ENTRIES`` steps x couplings) in one call:
it contracts the Magnus weights w_k of each step
with a block stack's E(-i M_k) (``encode_terms``, ``model`` docstring),
bounds the 1-norm by sum_k |w_k| ||M_k||_1, multiplies each sub-batch of
whole steps into a running product (it stores no array of steps), reads the
complex product back and takes one Newton-Schulz step U <- U (3 - U^dag U) / 2,
which removes the norm that rounding loses and leaves a unitary U
unchanged; a squared exponential takes one too.  So propagators are
unitary to machine precision at any step size.

Every propagation builds these steps in term space, in stacks of blocks and
couplings (``model`` docstring); none samples a dense Hamiltonian.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "IDENTITY",
    "step_boundaries",
    "embed",
    "unitarity_defect",
    "encode_terms",
    "ordered_product",
    "gauss_nodes",
    "chunk_steps",
    "advance",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)

#: Relative tolerance for Hermiticity of term matrices.
HERMITICITY_TOL = 1e-12

#: Largest 1-norm of an exponent X at which the degree-8 Taylor polynomial
#: of exp(X) is exact to double rounding: there its first omitted term,
#: ||X||^9 / 9!, is at most 2^-53 (Al-Mohy & Higham, SIAM J. Matrix Anal.
#: Appl. 31, 970 (2009)).
THETA_8 = (2.0**-53 * math.factorial(9)) ** (1.0 / 9.0)

#: Complex entries per sub-batch of the Taylor exponential (256 4x4 or 40
#: 10x10 matrices, twice the bytes in real form).  Every temporary is one
#: sub-batch in size, which keeps the powers in cache and the memory fixed.
EXPM_BATCH_ENTRIES = 4096

# a_1, a_2 of T_8 (module docstring), then the weights of I, X, X_2, X_4 in its three sums.
_R = math.sqrt(177.0)
_BBC_8_A1, _BBC_8_A2 = (1.0 + _R) / 132.0, (1.0 + _R) / 528.0
_BBC_8 = np.array(
    [[1.0, 1.0, (857.0 - 58.0 * _R) / 630.0, 0.0], [0.0, 0.0, 2.0 / 3.0, 1.0],
     [(29.0 * _R - 271.0) / 210.0, 11.0 * (_R - 1.0) / 840.0, 11.0 * (_R - 9.0) / 3360.0, (89.0 - _R) / 2240.0]]
)

#: Magnus steps per chunk: sampled together, then multiplied out and
#: re-unitarized once.  A chunk of a coupling stack also holds at most
#: ``CHUNK_ENTRIES`` steps x couplings (``chunk_steps``), so a stack of up to
#: 16 couplings takes the chunks of one coupling, and the memory of a chunk
#: is bounded for any J grid.
CHUNK = 2048
CHUNK_ENTRIES = 16 * CHUNK


def chunk_steps(n_couplings: int) -> int:
    """Steps per chunk for a stack of ``n_couplings``: at most ``CHUNK``, and
    at most ``CHUNK_ENTRIES`` steps x couplings, but at least one step."""
    return max(min(CHUNK, CHUNK_ENTRIES // n_couplings), 1)


# The package's range checks: each returns its value or raises a ValueError naming ``what``.
def positive_int(what: str, value):
    """A count: an ``int`` or numpy integer (not ``bool``) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def positive(what: str, value):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def non_negative(what: str, value):
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {value}")
    return value


def step_boundaries(t_start: float, t_end: float, max_step: float, breakpoints=()) -> np.ndarray:
    """Step boundaries over ``[t_start, t_end]``, both ends included, with one
    on every breakpoint inside the window.

    Each piece between consecutive breakpoints (and the window ends) gets
    the fewest equal steps no longer than ``max_step``.  Breakpoints outside
    the window, or within 1e-9 of the window length of an end or of each
    other, are dropped.

    Raises
    ------
    ValueError
        If the window is empty or not finite, or ``max_step`` is not
        positive and finite.
    """
    if not -math.inf < t_start < t_end < math.inf:
        raise ValueError(f"window must be finite with t_end > t_start, got [{t_start}, {t_end}]")
    positive("step", max_step)
    merge = 1e-9 * (t_end - t_start)
    knots = [t_start]
    for t in sorted(float(t) for t in breakpoints):
        if knots[-1] + merge < t < t_end - merge:
            knots.append(t)
    knots.append(t_end)
    # Tolerate float noise when a piece is an exact multiple of the step.
    counts = [max(int(math.ceil((b - a) / max_step - 1e-9)), 1) for a, b in zip(knots, knots[1:])]
    indices = np.cumsum([0] + counts)
    return np.interp(np.arange(indices[-1] + 1), indices, np.array(knots, dtype=float))


def embed(op: np.ndarray, qubit: int, n_qubits: int) -> np.ndarray:
    """Single-qubit operator acting on ``qubit`` of an ``n_qubits`` register.

    Qubits are labeled 1..n with qubit 1 the leftmost Kronecker factor.
    """
    if not 1 <= qubit <= n_qubits:
        raise ValueError(f"qubit label {qubit} outside register of {n_qubits}")
    factors = [IDENTITY] * n_qubits
    factors[qubit - 1] = op
    return functools.reduce(np.kron, factors)


def unitarity_defect(u: np.ndarray) -> float:
    """Largest entrywise deviation of ``u^dag u`` from the identity."""
    u = np.asarray(u)
    d = u.shape[-1]
    g = np.matmul(u.conj().swapaxes(-1, -2), u)
    return float(np.abs(g - np.eye(d)).max())


def encode_terms(hermitian: np.ndarray) -> np.ndarray:
    """The float64 ``(K, B * e)`` term matrices of ``advance`` for the
    ``(K, B, d, d)`` Hermitian matrices M_kb of K terms on B blocks: up to
    2x2, the e = d * d real coefficients Tr(sigma_p M) / d on I (, X, Y, Z);
    above, the e = 4 d * d entries of the real form E(-i M)."""
    k, b, d = hermitian.shape[:3]
    if d <= 2:
        paulis = np.array([IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z])[: d * d, :d, :d]
        return np.einsum("pji,kbij->kbp", paulis, hermitian).real.reshape(k, -1) / d
    return _real_form(-1j * hermitian).reshape(k, -1)


def _real_form(a: np.ndarray) -> np.ndarray:
    """E(A) = [[Re A, -Im A], [Im A, Re A]] of a complex ``(..., d, d)`` stack."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _complex_form(e: np.ndarray) -> np.ndarray:
    """A of a ``(..., 2d, 2d)`` stack of real forms E(A)."""
    d = e.shape[-1] // 2
    return e[..., :d, :d] + 1j * e[..., d:, :d]


def _check_finite(what: str, *values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise ValueError(f"cannot exponentiate a non-finite {what}")


def _term_exponentials(weights: np.ndarray, matrices: np.ndarray, norms: np.ndarray):
    """Yield exp(X_n) of the steps of ``advance`` in order, in real form, as
    ``(m, C, B, 2d, 2d)`` sub-batches of ``_expm_taylor``: each contracts its
    weights into the workspace, with bounds sum_k |weights[n, c, k]| norms[k, b]."""
    n_couplings = weights.shape[1]
    rows = weights.reshape(-1, weights.shape[-1])
    n_blocks = norms.shape[1]
    d = math.isqrt(matrices.shape[1] // n_blocks) // 2
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite weight makes its bounds non-finite
        bounds = (np.abs(rows) @ norms).ravel()
    _check_finite("Magnus weight", bounds)

    def prepare(start: int, stop: int, x: np.ndarray) -> np.ndarray:
        w = rows[start // n_blocks : stop // n_blocks]
        np.matmul(w, matrices, out=x.reshape(len(w), -1))
        return bounds[start:stop]

    for _, exponentials in _expm_taylor(len(bounds), d, prepare, n_couplings * n_blocks):
        yield exponentials.reshape((-1, n_couplings, n_blocks, 2 * d, 2 * d))


def _expm_taylor(n: int, d: int, prepare, group: int = 1):
    """Yield ``(start, exponentials)``: exp(X) of n d x d exponents in real
    form by scaled Taylor polynomials (module docstring), a sub-batch at a
    time, as a view of the workspace that the next sub-batch overwrites.

    Sub-batches of about ``EXPM_BATCH_ENTRIES`` complex entries, whole groups
    of ``group`` consecutive matrices each, share one workspace.
    ``prepare(start, stop, x)`` writes E(X) of exponents ``start`` to
    ``stop`` into its slot ``x``, shape ``(m, 2d, 2d)``, and returns upper
    bounds on the 1-norms of the X.
    """
    size = min(max(EXPM_BATCH_ENTRIES // (d * d * group), 1) * group, n)
    workspace = np.empty(7 * size * 4 * d * d)
    filled = 0
    for start in range(0, n, size):
        m = min(size, n - start)
        # I, X, X_2 and X_4, then the three sums of T_8.
        powers, sums = np.split(workspace[: 7 * m * 4 * d * d].reshape(7, m, 2 * d, 2 * d), [4])
        if m != filled:
            powers[0], filled = np.eye(2 * d), m
        x, x2, x4 = powers[1:]
        bounds = prepare(start, start + m, x)
        # bound / THETA_8 = m 2^e with 1/2 <= m < 1, so e is the least s with bound 2^-s < THETA_8.
        squarings = np.maximum(np.frexp(bounds / THETA_8)[1], 0)
        if squarings.any():
            x *= np.ldexp(1.0, -squarings)[:, None, None]
        np.matmul(x, x, out=x2)
        # The slots of the sums first hold a_1 X + a_2 X_2.
        s, left, right = sums
        np.multiply(x, _BBC_8_A1, out=s)
        s += np.multiply(x2, _BBC_8_A2, out=left)
        np.matmul(x2, s, out=x4)
        # T_8 = S + L R, with S, L and R the rows of _BBC_8 applied to I, X, X_2, X_4.
        np.matmul(_BBC_8, powers.reshape(4, -1), out=sums.reshape(3, -1))
        out = np.matmul(left, right, out=x)
        out += s
        for k in range(int(squarings.max())):
            squared = out[squarings > k]
            out[squarings > k] = squared @ squared
        if squarings.any():
            out[squarings > 0] = _newton_schulz(out[squarings > 0])
        yield start, out


def _newton_schulz(u: np.ndarray) -> np.ndarray:
    """One step U <- U (3 - U^dag U) / 2 towards the nearest unitary, for a
    matrix or a stack, complex or in real form; it leaves a unitary U unchanged."""
    return u @ (1.5 * np.eye(u.shape[-1]) - 0.5 * (u.conj().swapaxes(-1, -2) @ u))


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """Time-ordered product ``mats[-1] @ ... @ mats[1] @ mats[0]``.

    ``mats`` is a non-empty ``(n, ..., d, d)`` stack (else ValueError) of any
    dtype, index n increasing in time, and the result ``(..., d, d)``: one
    product per stack entry.  It is taken pairwise (a balanced tree), which
    keeps the Python-level loop at O(log n) batched products.
    """
    m = np.asarray(mats)
    if m.ndim < 3 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {m.shape}")
    while m.shape[0] > 1:
        k = m.shape[0] // 2
        combined = np.matmul(m[1 : 2 * k : 2], m[0 : 2 * k : 2])
        if m.shape[0] % 2:
            combined = np.concatenate([combined, m[-1:]])
        m = combined
    return m[0]


def gauss_nodes(edges: np.ndarray, chunk: int):
    """Yield ``(widths, times)`` for each chunk of at most ``chunk`` of the
    steps between the boundaries ``edges``.

    ``times`` holds the early Gauss node t_n + h (1/2 - sqrt(3)/6) of every
    step of the chunk, then the late node t_n + h (1/2 + sqrt(3)/6).
    """
    starts, widths = edges[:-1], np.diff(edges)
    offset = math.sqrt(3.0) / 6.0
    for start in range(0, widths.size, chunk):
        h_step = widths[start : start + chunk]
        t_step = starts[start : start + chunk]
        yield h_step, np.concatenate(
            [t_step + (0.5 - offset) * h_step, t_step + (0.5 + offset) * h_step]
        )


def _pauli_product(weights: np.ndarray, coefficients: np.ndarray, d: int) -> np.ndarray:
    """Ordered product ``(C, B, d, d)`` of the 1x1 or 2x2 steps of ``advance``
    (module docstring), from the real coefficients of each M_kb on I, or on
    I, X, Y and Z: ``coefficients[k]`` holds d * d per block."""
    n, n_couplings, k = weights.shape
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite weight makes every g non-finite
        g = np.ascontiguousarray((weights.reshape(-1, k) @ coefficients).reshape(n, n_couplings, -1, d * d).T)
        phases = g[0].sum(axis=-1, dtype=np.longdouble).astype(float).T
        r = np.sqrt(g[1] ** 2 + g[2] ** 2 + g[3] ** 2) if d == 2 else 0.0
    _check_finite("Magnus weight", phases, r)
    phase = np.exp(-1j * phases)[..., None, None]
    if d == 1:
        return phase
    sinc = np.sinc(r / np.pi)
    a, b = np.cos(r) - 1j * (g[3] * sinc), (g[2] - 1j * g[1]) * sinc
    while a.shape[-1] > 1:
        # Each later step times the earlier one; an odd step out waits at the end, as in ``ordered_product``.
        m = a.shape[-1] // 2 * 2
        a_l, b_l, a_r, b_r = a[..., 1:m:2], b[..., 1:m:2], a[..., :m:2], b[..., :m:2]
        pairs = a_l * a_r - b_l.conj() * b_r, b_l * a_r + a_l.conj() * b_r
        if m < a.shape[-1]:
            pairs = [np.concatenate([p, x[..., m:]], axis=-1) for p, x in zip(pairs, (a, b))]
        a, b = pairs
    a, b = a[..., 0].T, b[..., 0].T
    return phase * np.stack([a, -b.conj(), b, a.conj()], axis=-1).reshape(a.shape + (2, 2))


def advance(u: np.ndarray, weights: np.ndarray, matrices: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """``u`` carried through the steps ``exp(X_n)`` of one chunk, given in term space.

    X_n = -i h H_eff = sum_k weights[n, c, k] matrices[k, b] on coupling c and
    block b: ``weights`` is the real ``(n, C, K)`` array of Magnus weights, time
    index first, ``matrices`` the ``encode_terms`` of B blocks, ``norms`` their
    ``(K, B)`` 1-norms, and ``u`` the matching ``(C, B, d, d)`` (or ``(B, d,
    d)``) propagators.  The steps are exponentiated and multiplied out in one
    call, and re-unitarized by one Newton-Schulz step (module docstring).

    Raises
    ------
    ValueError
        If a weight is not finite.
    """
    d = u.shape[-1]
    if d <= 2:
        return _newton_schulz(_pauli_product(weights, matrices, d) @ u)
    product = np.eye(2 * d)
    for steps in _term_exponentials(weights, matrices, norms):
        product = ordered_product(steps) @ product
    return _newton_schulz(_complex_form(product) @ u)
