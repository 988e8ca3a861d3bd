"""Qubit layouts, control schemes, and Hamiltonian assembly.

The operation frame is the rotating frame of the bare qubit frequencies.
There an always-on exchange coupling J between qubit pairs detuned by Delta
appears as

    H_xy(t) = J (e^{i Delta t} sigma_q^+ sigma_c^- + h.c.)

summed over coupled pairs.  Control schemes modify this picture:

* ``CrosstalkOnly`` leaves the coupling untouched (the reference case).
* ``FrequencyModulation`` adds a sinusoidal Z drive on the shared qubit.  In
  the modulated frame the Z drive disappears and every coupling phase
  becomes ``Delta t + 2 alpha(t)`` with ``alpha`` the accumulated modulation
  phase; both frames are implemented and agree on whole-gate propagators.
* ``DynamicalDecoupling`` adds a train of narrow pi Z pulses on the shared
  qubit, with X drives squeezed into the odd inter-pulse segments; with
  ``pulses=False`` it is the pulse-free reference of the same drive layout.

Time-dependent Hamiltonians are represented as sums of real coefficient
functions times constant Hermitian matrices, which keeps samples exactly
Hermitian and lets the propagator evaluate whole time batches at once.

The coupling strength J is a coefficient, not part of a matrix: the exchange
terms carry the unit-coupling matrices A + A^T and i (A - A^T), and each
assembly carries a 1-D stack of couplings (rad/ns) that scales their
coefficients, ``(params.j,)`` from ``assemble_hamiltonian`` or a whole J grid
in a sweep.  Term matrices, blocks and commutators are then the same for
every J, so one block analysis and one propagation score the whole stack; at
J = 0 the exchange blocks keep their matrices and get zero coefficients.

Every control term carries a channel name (``X1-drive``, ``Z2-modulation``,
...), so plotted waveforms are sampled from the simulated Hamiltonian itself.

Each assembly also lists its breakpoints: the kinks its waveforms declare
(pulse edges, burst edges, and the drive and modulation window edges of
every repeated gate).  The coefficients are smooth between them, so step
grids that put a boundary on each breakpoint keep the propagator's
fourth-order Magnus steps at full order.

Assemblies propagate block by block (``AssembledHamiltonian.blocks``), with
blocks derived from the term matrices alone.  When every term commutes with
the exchange of any two neighbors of the center (idle and center-driven
gates on the star), the basis is the neighbors' collective-spin (Dicke)
basis times the center's states, which splits the 32 dimensions into irreps
of total spin 2, 1 and 0 with multiplicities 1, 3 and 2; otherwise it is the
computational basis.  The blocks are the connected components of the terms'
union sparsity pattern in that basis, which also splits off conserved
excitation numbers, and copies with identical matrices are propagated once.
A driven neighbor leaves one full block.  The rebuilt propagator matches the
dense one to roundoff.

Blocks propagate in term space (``TermBlock``).  Each chunk of steps
samples the assembly's real coefficient functions once, at both Gauss nodes
of every step, and every distinct block builds its Magnus generators from
them, its term matrices M_k and their precomputed commutators, without
forming dense samples.  Since [H_2, H_1] = sum_{k<l} (c2_k c1_l - c2_l c1_k)
[M_k, M_l], the generator of ``operators`` is

    h H_eff = sum_k h (c1_k + c2_k) / 2 M_k
              + sum_{k<l} (sqrt(3) h^2 / 12) (c2_k c1_l - c2_l c1_k) (-i [M_k, M_l]),

one real contraction per block, and the steps match ``operators.propagate``
on the dense assembly to roundoff.  The distinct blocks of one dimension
propagate as one stack: per chunk of at most ``CHUNK / C`` steps for C
couplings, ``operators.advance`` exponentiates their ``(n, C, B, d, d)``
generators (time index first) in one call and multiplies them out in one
product tree, with 1x1 and 2x2 steps multiplied elementwise.

Qubits are labeled 1..n; qubit 2 is the shared (modulated/pulsed) qubit in
both shipped layouts, ``PAIR`` and ``STAR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from xtalksim.operators import (
    CHUNK,
    HERMITICITY_TOL,
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TimeGrid,
    advance,
    check_hermitian,
    embed,
    expm_hamiltonian,
    gauss_nodes,
    kron,
)
from xtalksim.pulses import (
    FmZModulation,
    NascentDeltaTrain,
    SegmentedDrive,
    SineEnvelopeDrive,
)

__all__ = [
    "Topology",
    "PAIR",
    "STAR",
    "SystemParams",
    "CrosstalkOnly",
    "FrequencyModulation",
    "DynamicalDecoupling",
    "Idle",
    "XGate",
    "ParallelXX",
    "AssembledHamiltonian",
    "TermBlock",
    "SymmetryBlocks",
    "assemble_hamiltonian",
    "coupling_phase",
    "target_unitary",
    "static_frame_reference",
    "cyclic_mhz_to_angular",
    "angular_to_cyclic_mhz",
]

#: One cyclic MHz expressed in angular rad/ns.
MHZ = 2.0 * math.pi * 1e-3


def cyclic_mhz_to_angular(f_mhz: float) -> float:
    """Convert a cyclic frequency in MHz to angular rad/ns."""
    return f_mhz * MHZ


def angular_to_cyclic_mhz(omega: float) -> float:
    return omega / MHZ


@dataclass(frozen=True)
class Topology:
    """Qubits 1..``n_qubits`` with exchange couplings on ``edges``.

    ``center`` is the shared qubit that carries any modulation or pulse
    train.  Every neighbor sits at the same detuning from the center, so one
    waveform on the center addresses every coupling at once.
    """

    n_qubits: int
    center: int
    edges: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


#: Two coupled qubits.
PAIR = Topology(n_qubits=2, center=2, edges=((1, 2),))

#: Central qubit 2 coupled to four neighbors (qubits 1, 3, 4, 5).
STAR = Topology(n_qubits=5, center=2, edges=((1, 2), (3, 2), (4, 2), (5, 2)))


@dataclass(frozen=True)
class SystemParams:
    """Detuning and coupling in angular units (rad/ns).

    ``delta`` is the neighbor-minus-center frequency difference, identical
    for every coupled pair; ``j`` is the exchange coupling strength.
    """

    delta: float
    j: float

    def __post_init__(self):
        if self.delta == 0.0:
            raise ValueError("detuning must be nonzero")
        if self.j < 0.0:
            raise ValueError(f"coupling must be >= 0, got {self.j}")

    @classmethod
    def from_mhz(cls, delta_mhz: float, j_mhz: float) -> "SystemParams":
        return cls(delta=cyclic_mhz_to_angular(delta_mhz), j=cyclic_mhz_to_angular(j_mhz))

    @property
    def t_delta(self) -> float:
        """Half period of the coupling phase, pi / |Delta|."""
        return math.pi / abs(self.delta)

    def matched_time(self, m: int = 1) -> float:
        """m-th matched gate time, 2 m pi / |Delta|."""
        if m < 1:
            raise ValueError(f"matched-time index must be >= 1, got {m}")
        return 2.0 * m * math.pi / abs(self.delta)

    def is_matched(self, t: float) -> bool:
        ratio = t / self.matched_time()
        return abs(ratio - round(ratio)) <= 1e-9 * max(1.0, abs(ratio)) and round(ratio) >= 1


@dataclass(frozen=True)
class CrosstalkOnly:
    """No mitigation: bare XY crosstalk (the comparison baseline)."""


@dataclass(frozen=True)
class FrequencyModulation:
    """Sinusoidal Z modulation of the shared qubit.

    Parameters
    ----------
    cycles:
        Number of full modulation periods per gate window.
    gamma:
        Modulation amplitude in rad/ns (>= 0).
    single_site:
        When True, X drives target the modulated qubit itself and are
        specified in the modulated frame; when False they target a neighbor.
    """

    cycles: int
    gamma: float
    single_site: bool = False

    def __post_init__(self):
        if int(self.cycles) != self.cycles or self.cycles < 1:
            raise ValueError(f"cycle count must be a positive integer, got {self.cycles}")
        if self.gamma < 0.0:
            raise ValueError(f"modulation amplitude must be >= 0, got {self.gamma}")

    def modulation(self, gate_time: float) -> FmZModulation:
        return FmZModulation(gamma=self.gamma, cycles=self.cycles, duration=gate_time)


@dataclass(frozen=True)
class DynamicalDecoupling:
    """Z-pulse train on the shared qubit with drives in the odd segments.

    ``segments`` pulses of width ``width`` sit at the ends of equal segments
    of the gate window; the pulse count must be even and at least 4 for the
    leading-order crosstalk cancellation to hold.  With ``pulses=False`` the
    run is the pulse-free reference: the same segmented drive at zero width,
    no Z train, and ``width`` unused.
    """

    segments: int = 4
    width: float = 1.25
    pulses: bool = True

    def __post_init__(self):
        if self.segments < 4 or self.segments % 2:
            raise ValueError(
                f"pulse count must be even and >= 4, got {self.segments}"
            )
        if self.width <= 0.0:
            raise ValueError(f"pulse width must be positive, got {self.width}")


ControlScheme = Union[CrosstalkOnly, FrequencyModulation, DynamicalDecoupling]


@dataclass(frozen=True)
class Idle:
    """Do-nothing gate of the given duration (ns)."""

    duration: float

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError(f"gate time must be positive, got {self.duration}")


@dataclass(frozen=True)
class XGate:
    """Pi rotation about x on one qubit."""

    duration: float
    target: int = 1

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError(f"gate time must be positive, got {self.duration}")
        if self.target < 1:
            raise ValueError(f"target qubit label must be >= 1, got {self.target}")


@dataclass(frozen=True)
class ParallelXX:
    """Simultaneous X gates on qubits 1 and 2 (pair layout only)."""

    duration: float

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ValueError(f"gate time must be positive, got {self.duration}")


GateSpec = Union[Idle, XGate, ParallelXX]


@dataclass
class AssembledHamiltonian:
    """Hamiltonian of a gate (or run of identical gates) as term sums.

    ``terms`` holds ``(channel, coefficient, matrix)`` triples: a vectorized
    real coefficient function of global time times a constant Hermitian
    matrix.  Control terms name their channel (``"X1-drive"``,
    ``"Z2-pulses"``, ...); the exchange terms have the empty name, and each
    entry of ``couplings`` (rad/ns) scales their coefficients.  ``tail``
    extends the evaluation window past the last gate boundary (the trailing
    half pulse of a decoupling train); ``periodic`` marks that the
    propagator over ``[tail + k T, tail + (k+1) T]`` is the same for every
    k, which repeated runs exploit.  ``topology`` names the layout the
    matrices act on; :meth:`blocks` uses it to look for interchangeable
    neighbors.  ``breakpoints`` are the sorted kinks of the control
    waveforms; grids for this assembly are built with
    ``TimeGrid.with_max_step(..., breakpoints)``.
    """

    terms: tuple[tuple[str, Callable[[np.ndarray], np.ndarray], np.ndarray], ...]
    dim: int
    gate_time: float
    repetitions: int = 1
    tail: float = 0.0
    periodic: bool = False
    topology: Optional[Topology] = None
    breakpoints: tuple[float, ...] = ()
    couplings: tuple[float, ...] = (1.0,)

    @property
    def t_end(self) -> float:
        return self.repetitions * self.gate_time + self.tail

    def controls(self) -> dict[str, Callable[[np.ndarray], np.ndarray]]:
        """Control waveforms (rad/ns) keyed by channel name."""
        return {name: coeff for name, coeff, _ in self.terms if name}

    def blocks(self) -> "SymmetryBlocks":
        """Block-diagonal form of this Hamiltonian, derived from its term
        matrices as the module docstring describes."""
        mats = np.reshape([mat for _, _, mat in self.terms], (-1, self.dim, self.dim))
        basis = None
        if _neighbors_interchangeable(self.topology, mats):
            basis = _dicke_basis(self.topology)
        adapted = mats if basis is None else basis.T @ mats @ basis
        scales = np.abs(mats).max(axis=(1, 2), initial=0.0)
        # Entries below this are roundoff of the basis change.
        tol = 1e-12 * scales[:, None, None]
        present = np.abs(adapted) > tol
        distinct: list[tuple[np.ndarray, list[np.ndarray]]] = []
        for idx in _components(present.any(axis=0)):
            stack = adapted[:, idx[:, None], idx]
            for rep, copies in distinct:
                if rep.shape == stack.shape and (np.abs(rep - stack) <= tol).all():
                    copies.append(idx)
                    break
            else:
                distinct.append((stack, [idx]))
        blocks = []
        for stack, copies in distinct:
            terms = tuple(
                k for k, (block, term_tol) in enumerate(zip(stack, tol))
                if (np.abs(block) > term_tol).any()
            )
            blocks.append((TermBlock.from_terms(terms, stack[list(terms)]), tuple(copies)))
        defects = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(1, 2), initial=0.0)
        return SymmetryBlocks(
            hamiltonian=self,
            basis=basis,
            blocks=tuple(blocks),
            hermitian_terms=bool((defects <= HERMITICITY_TOL * scales).all()),
        )

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        """Real coefficients of every term at the 1-D times ``t``, shape ``(n, C, K)``.

        Raises
        ------
        ValueError
            If a coefficient has a nonzero imaginary part (the channel and
            the first such time are named): a complex coefficient times a
            Hermitian matrix is not Hermitian.
        """
        out = np.empty((t.size, len(self.terms)))
        for k, (name, coeff, _) in enumerate(self.terms):
            c = np.broadcast_to(coeff(t), t.shape)
            if np.iscomplexobj(c):
                bad = np.flatnonzero(c.imag)
                if bad.size:
                    raise ValueError(
                        f"complex coefficient {c[bad[0]]} on channel {name or 'exchange'} "
                        f"at t={t[bad[0]]:.9g} ns"
                    )
                c = c.real
            out[:, k] = c
        exchange = np.array([not name for name, _, _ in self.terms])
        return out[:, None] * np.where(exchange, np.array(self.couplings)[:, None], 1.0)

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        """Dense samples ``sum_k c_k M_k`` from ``(..., K)`` term coefficients."""
        out = np.zeros(coefficients.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for c, (_, _, mat) in zip(np.moveaxis(coefficients, -1, 0), self.terms):
            out += c[..., None, None] * mat
        return out

    def __call__(self, t):
        if len(self.couplings) != 1:
            raise ValueError(f"dense samples need one coupling, got {len(self.couplings)}")
        tt = np.asarray(t, dtype=float)
        scalar = tt.ndim == 0
        out = self.combine(self.coefficients(np.atleast_1d(tt))[:, 0])
        return out[0] if scalar else out


@dataclass(frozen=True)
class TermBlock:
    """One distinct block in term space: H_b(t) = sum_k c_k(t) M_k.

    ``terms`` indexes the assembly's terms that act on the block.
    ``matrices`` stacks their block matrices M_k and then the Hermitian
    commutators -i [M_k, M_l] for the index pairs ``pairs`` (k < l), flattened
    to ``(K + K (K - 1) / 2, d * d)``.
    """

    terms: tuple[int, ...]
    dim: int
    matrices: np.ndarray
    pairs: tuple[np.ndarray, np.ndarray]

    @classmethod
    def from_terms(cls, terms: tuple[int, ...], mats: np.ndarray) -> "TermBlock":
        """Block of the assembly terms ``terms`` with block matrices ``mats``."""
        d = mats.shape[-1]
        first, second = np.triu_indices(len(terms), 1)
        # -i [M_k, M_l] = -i (C - C^dag) with C = M_k M_l: exactly Hermitian.
        c = mats[first] @ mats[second]
        commutators = -1j * (c - c.conj().swapaxes(-1, -2))
        stack = np.concatenate([mats.astype(complex), commutators]).reshape(-1, d * d)
        return cls(terms=terms, dim=d, matrices=stack, pairs=(first, second))

    def generators(self, c1: np.ndarray, c2: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """h H_eff of each Magnus step (module docstring), shape ``(n, C, d, d)``.

        ``c1`` and ``c2`` are the assembly's ``(n, C, K)`` coefficients at
        the early and late Gauss nodes of steps of width ``widths``.
        """
        a, b = c1[..., self.terms], c2[..., self.terms]
        first, second = self.pairs
        h = widths[:, None, None]
        cross = b[..., first] * a[..., second] - b[..., second] * a[..., first]
        weights = np.concatenate(
            [0.5 * h * (a + b), (math.sqrt(3.0) / 12.0) * h**2 * cross], axis=-1
        )
        # One real contraction over the interleaved real and imaginary parts.
        out = weights.reshape(-1, weights.shape[-1]) @ self.matrices.view(float)
        return out.view(complex).reshape(c1.shape[:2] + (self.dim, self.dim))


@dataclass(frozen=True)
class SymmetryBlocks:
    """An assembly split into independent blocks: ``U = W (+)_b U_b W^T``.

    ``basis`` is the real orthogonal ``W`` (None for the computational
    basis).  Each entry of ``blocks`` pairs a distinct block with the index
    sets, in ``W``'s columns, of every copy that shares its matrices.
    ``hermitian_terms`` is False when some term matrix of ``hamiltonian`` is
    not Hermitian to ``HERMITICITY_TOL``; propagation then checks every
    sample.
    """

    hamiltonian: AssembledHamiltonian
    basis: Optional[np.ndarray]
    blocks: tuple[tuple[TermBlock, tuple[np.ndarray, ...]], ...]
    hermitian_terms: bool

    @property
    def layout(self) -> str:
        """Distinct blocks as ``{dimension}x{copies}``, e.g. ``10x1 6x3 2x2``."""
        return " ".join(f"{b.dim}x{len(copies)}" for b, copies in self.blocks)

    def propagate(self, grid: TimeGrid) -> np.ndarray:
        """Full-space propagators over ``grid``, ``(C, dim, dim)`` for the C
        couplings of the assembly, each distinct block propagated once.

        Steps are built in term space, and the distinct blocks of one
        dimension advance as one stack (module docstring); blocks without
        terms stay the identity.

        Raises
        ------
        ValueError
            For a complex coefficient or a non-Hermitian sample, naming the
            time.
        """
        stacks: dict[int, list[int]] = {}
        for i, (block, _) in enumerate(self.blocks):
            if block.terms:
                stacks.setdefault(block.dim, []).append(i)
        n_couplings = len(self.hamiltonian.couplings)
        # (d, d) identities until a block's first chunk gives it (C, d, d).
        units = {i: np.eye(b.dim, dtype=complex) for i, (b, _) in enumerate(self.blocks)}
        for widths, times in gauss_nodes(grid, max(CHUNK // n_couplings, 1)):
            coefficients = self.hamiltonian.coefficients(times)
            if not self.hermitian_terms:
                check_hermitian(self.hamiltonian.combine(coefficients), times)
            c1, c2 = coefficients[: widths.size], coefficients[widths.size :]
            for members in stacks.values():
                generators = np.stack(
                    [self.blocks[i][0].generators(c1, c2, widths) for i in members], axis=2
                )
                stack = np.stack([units[i] for i in members], axis=-3)
                units.update(zip(members, advance(stack, generators).swapaxes(0, 1)))
        u = np.zeros((n_couplings,) + (self.hamiltonian.dim,) * 2, dtype=complex)
        for (_, copies), unit in zip(self.blocks, units.values()):
            rows = np.array(copies)
            u[:, rows[:, :, None], rows[:, None, :]] = unit[..., None, :, :]
        return u if self.basis is None else self.basis @ u @ self.basis.T


def _neighbors(topology: Topology) -> list[int]:
    return [q for q in range(1, topology.n_qubits + 1) if q != topology.center]


def _neighbors_interchangeable(topology: Optional[Topology], mats: np.ndarray) -> bool:
    """True when every matrix commutes with each swap of two adjacent
    neighbors; these swaps generate every permutation of the neighbors."""
    neighbors = [] if topology is None else _neighbors(topology)
    if len(neighbors) < 2:
        return False
    labels = np.arange(topology.dim).reshape((2,) * topology.n_qubits)
    tol = 1e-12 * np.abs(mats).max(initial=0.0)
    for p, q in zip(neighbors, neighbors[1:]):
        perm = labels.swapaxes(p - 1, q - 1).reshape(-1)
        if np.abs(mats[:, perm[:, None], perm] - mats).max(initial=0.0) > tol:
            return False
    return True


def _dicke_basis(topology: Topology) -> np.ndarray:
    """Neighbors' collective-spin basis times the center's states.

    Columns run over irreps (total spin m/2 down to 0 or 1/2 for m
    neighbors), then copies, then weight, then the center's state.  Each
    copy is laddered with the collective raising operator from an
    orthonormal lowest-weight state, so the copies of one irrep carry
    identical matrices of any neighbor-permutation-invariant operator.
    """
    neighbors = _neighbors(topology)
    m = len(neighbors)
    states = np.arange(2**m)
    excitations = sum((states >> bit) & 1 for bit in range(m))
    flips = states[:, None] ^ states
    # <i|raising|j> = 1 where i and j differ in one bit, set in i (so i > j).
    raising = (((flips & (flips - 1)) == 0) & (states[:, None] > states)).astype(float)
    columns = []
    for k in range(m // 2 + 1):
        here = np.flatnonzero(excitations == k)
        lowering = raising.T[np.ix_(np.flatnonzero(excitations == k - 1), here)]
        gram, vecs = np.linalg.eigh(lowering.T @ lowering)
        for lowest in vecs[:, gram < 0.5].T:
            v = np.zeros(2**m)
            v[here] = lowest
            columns.append(v)
            for _ in range(m - 2 * k):
                v = raising @ v
                v = v / np.linalg.norm(v)
                columns.append(v)
    dicke = np.kron(np.column_stack(columns), np.eye(2))
    # Rows are ordered (neighbors..., center); put the qubits in label order.
    order = np.argsort(neighbors + [topology.center])
    n = topology.n_qubits
    return dicke.reshape((2,) * n + (topology.dim,)).transpose(*order, n).reshape(
        topology.dim, topology.dim
    )


def _components(pattern: np.ndarray) -> list[np.ndarray]:
    """Index sets of a square boolean pattern's connected components, by least index."""
    reach = (pattern | pattern.T | np.eye(len(pattern), dtype=bool)).astype(float)
    # After k squarings, reach covers every path of up to 2**k edges.
    for _ in range(max(len(pattern) - 1, 1).bit_length()):
        reach = (reach @ reach > 0).astype(float)
    first = reach.argmax(axis=1)  # the least index of each index's component
    return [np.flatnonzero(first == f) for f in np.unique(first)]


def _flip_flop(topology: Topology) -> np.ndarray:
    """Sum over edges (q, c) of sigma_q^+ sigma_c^-, a real matrix."""
    n = topology.n_qubits
    a_sum = np.zeros((topology.dim, topology.dim), dtype=complex)
    for q, c in topology.edges:
        factors = [IDENTITY] * n
        factors[q - 1] = SIGMA_PLUS
        factors[c - 1] = SIGMA_MINUS
        a_sum += kron(*factors)
    return a_sum


def coupling_phase(params: SystemParams, modulation: Optional[FmZModulation] = None):
    """Coupling phase phi(t) = Delta t + 2 alpha(t) as a vectorized callable.

    ``alpha`` is the accumulated phase of ``modulation``; without one the
    phase is the bare Delta t of the operation frame.
    """
    if modulation is None:
        return lambda t: params.delta * t
    return lambda t: params.delta * t + 2.0 * modulation.phase(t)


def _exchange_terms(topology: Topology, phase: Callable):
    """Unit-strength XY coupling: two unnamed Hermitian terms, cos/sin coefficients.

    ``phase`` maps a time array to the coupling phase phi(t); the coupling
    J(e^{i phi} sigma_q^+ sigma_c^- + h.c.) splits into
    J cos(phi) (A + A^T) + J sin(phi) i(A - A^T) with A real.
    """
    a_sum = _flip_flop(topology)
    sym, asym = a_sum + a_sum.T, 1j * (a_sum - a_sum.T)
    return [("", lambda t: np.cos(phase(t)), sym), ("", lambda t: np.sin(phase(t)), asym)]


def _x_target_labels(gate: GateSpec, topology: Topology) -> tuple[int, ...]:
    if isinstance(gate, Idle):
        return ()
    if isinstance(gate, XGate):
        if gate.target > topology.n_qubits:
            raise ValueError(
                f"X target {gate.target} outside the {topology.n_qubits}-qubit layout"
            )
        return (gate.target,)
    if isinstance(gate, ParallelXX):
        if topology.n_qubits != 2:
            raise ValueError("parallel XX is only defined on the two-qubit layout")
        return (1, 2)
    raise TypeError(f"unsupported gate: {gate!r}")


def _periodic_envelope(env, gate_time: float, repetitions: int):
    """Wrap a single-window envelope so it repeats each gate.

    Returns the sample function and the kinks of every repetition.
    """
    kinks = [k * gate_time + t for k in range(repetitions) for t in env.kinks()]
    if repetitions == 1:
        return env.sample, kinks
    return (lambda t: env.sample(np.mod(t, gate_time))), kinks


def assemble_hamiltonian(
    params: SystemParams,
    topology: Topology,
    scheme: ControlScheme,
    gate: GateSpec,
    *,
    repetitions: int = 1,
    fm_frame: str = "modulated",
) -> AssembledHamiltonian:
    """Full time-dependent Hamiltonian of ``repetitions`` consecutive gates.

    Control terms are named ``X{q}-drive`` and ``Y{q}-drive`` for drives on
    qubit q, and ``Z{c}-modulation`` or ``Z{c}-pulses`` for the center c.

    Parameters
    ----------
    fm_frame:
        ``"modulated"`` (default) integrates frequency modulation in the
        modulated frame, where the Z drive is absorbed into the coupling
        phase; ``"operation"`` keeps the explicit Z drive and puts both
        quadratures on any modulated-qubit X drive.  Whole-gate propagators
        agree between the two.

    Raises
    ------
    ValueError
        For gate/scheme/layout combinations outside the supported set, or
        waveform geometry violations (e.g. pulse width >= segment length).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    t_gate = gate.duration
    targets = _x_target_labels(gate, topology)
    n, center = topology.n_qubits, topology.center

    phase = coupling_phase(params)
    x_drive, x_kinks = _periodic_envelope(SineEnvelopeDrive.x_gate(t_gate), t_gate, repetitions)
    # Operation-frame modulation turns the center's X drive into a quadrature pair.
    center_xy = None
    z_terms: list[tuple[str, Callable]] = []
    kinks: list[float] = []
    tail = 0.0

    if isinstance(scheme, CrosstalkOnly):
        pass

    elif isinstance(scheme, FrequencyModulation):
        modulation = scheme.modulation(t_gate)
        # Single-X gates must declare on which side of the modulation they
        # act; parallel gates drive both sides, the modulated qubit's drive
        # taking the modified form automatically.
        if isinstance(gate, XGate) and (gate.target == center) != scheme.single_site:
            kind = "single-site" if scheme.single_site else "neighbor-site"
            raise ValueError(
                f"{kind} modulation cannot drive qubit {gate.target} "
                f"(modulated qubit is {center})"
            )
        kinks += modulation.kinks()
        if fm_frame == "modulated":
            phase = coupling_phase(params, modulation)
        elif fm_frame == "operation":
            z_terms.append((f"Z{center}-modulation", modulation.sample))
            two_alpha = lambda tt: 2.0 * modulation.phase(tt)
            center_xy = (
                lambda tt: x_drive(tt) * np.cos(two_alpha(tt)),
                lambda tt: x_drive(tt) * np.sin(two_alpha(tt)),
            )
        else:
            raise ValueError(f"unknown fm_frame {fm_frame!r}")

    elif isinstance(scheme, DynamicalDecoupling):
        tau = t_gate / scheme.segments
        width = scheme.width if scheme.pulses else 0.0
        if width >= tau:
            raise ValueError(
                f"pulse width {width} ns must be below the segment length {tau} ns"
            )
        segments = repetitions * scheme.segments
        if scheme.pulses:
            train = NascentDeltaTrain(segments=segments, interval=tau, width=width)
            z_terms.append((f"Z{center}-pulses", lambda tt: (np.pi / 2.0) * train.sample(tt)))
            kinks += train.kinks()
            tail = width / 2.0
        bursts = SegmentedDrive.sqrt_x_bursts(segments=segments, interval=tau, width=width)
        x_drive, x_kinks = bursts.sample, bursts.kinks()

    else:
        raise TypeError(
            f"unsupported control scheme {scheme!r}; combined schemes (e.g. decoupling "
            "with modulation) are not constructible"
        )

    terms = _exchange_terms(topology, phase)
    terms += [(name, coeff, embed(SIGMA_Z, center, n)) for name, coeff in z_terms]
    for q in targets:
        if q == center and center_xy is not None:
            terms.append((f"X{q}-drive", center_xy[0], embed(SIGMA_X, q, n)))
            terms.append((f"Y{q}-drive", center_xy[1], embed(SIGMA_Y, q, n)))
        else:
            terms.append((f"X{q}-drive", x_drive, embed(SIGMA_X, q, n)))
    if targets:
        kinks += x_kinks

    return AssembledHamiltonian(
        terms=tuple(terms),
        dim=topology.dim,
        gate_time=t_gate,
        repetitions=repetitions,
        tail=tail,
        periodic=params.is_matched(t_gate),
        topology=topology,
        breakpoints=tuple(sorted(set(kinks))),
        couplings=(params.j,),
    )


def target_unitary(gate: GateSpec, topology: Topology, repetitions: int = 1) -> np.ndarray:
    """Ideal propagator of ``repetitions`` consecutive gates, exact: k X gates,
    each exp(-i pi/2 X) = -i X, apply (-i)^k X^k to their target."""
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    targets = _x_target_labels(gate, topology)
    x = SIGMA_X if repetitions % 2 else IDENTITY
    factors = [x if q in targets else IDENTITY for q in range(1, topology.n_qubits + 1)]
    phase = (1.0, -1j, -1.0, 1j)[repetitions * len(targets) % 4]
    return phase * kron(*factors)


def static_frame_reference(params: SystemParams, topology: Topology, t: float) -> np.ndarray:
    """Bare-crosstalk idle propagator from static diagonalization.

    In the lab frame the idle Hamiltonian is time independent:
    H = -sum_q (omega_q / 2) sigma_q^z + J sum_edges (sigma^+ sigma^- + h.c.)
    with the center at omega = 0 and neighbors at omega = Delta.  Its exact
    exponential, rotated back to the operation frame, is an independent
    reference for the time-ordered integrator.
    """
    n = topology.n_qubits
    h0 = np.zeros((topology.dim, topology.dim), dtype=complex)
    for q in range(1, n + 1):
        omega = 0.0 if q == topology.center else params.delta
        h0 += -(omega / 2.0) * embed(SIGMA_Z, q, n)
    a_sum = _flip_flop(topology)
    h_xy = params.j * (a_sum + a_sum.conj().T)
    u_lab = expm_hamiltonian(h0 + h_xy, t)
    # Undo the bare rotation: U_frame = exp(+i H0 t) U_lab, with H0 diagonal.
    return np.exp(1j * t * np.diagonal(h0))[:, None] * u_lab
