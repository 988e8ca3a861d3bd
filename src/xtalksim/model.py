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

An assembly (``AssembledHamiltonian``) is the coupling phase phi(t) plus
named controls: real coefficient functions times constant Hermitian
matrices, each with a channel name (``X1-drive``, ``Z2-modulation``, ...),
so plotted waveforms are sampled from the simulated Hamiltonian itself.  The
exchange enters as the unit-coupling matrices A + A^T and i (A - A^T) of the
flip-flop sum A, with coefficients Re and Im of J e^{i phi}, so samples are
exactly Hermitian and whole time batches are evaluated at once.

The coupling strength J is a coefficient, not part of a matrix: an assembly
carries a 1-D stack of couplings (rad/ns), ``(params.j,)`` or a J grid in a
sweep, and its term matrices, blocks and commutators serve every J, so one
block analysis and one propagation score the whole stack (at J = 0 the
exchange blocks get zero coefficients).  A complex J e^{i theta} advances the
phase by theta: a sequence's controls repeat every gate while its coupling
phase moves on by Delta T per gate (``experiments``).

An assembly describes one gate.  It also lists its breakpoints: the kinks
its waveforms declare (pulse edges, burst edges, and the drive and
modulation window edges).  The coefficients are smooth between them, so step
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
A driven neighbor leaves one full block.  The rebuilt propagator matches
that of the one-block layout (``AssembledHamiltonian.one_block``) to
roundoff.  The Dicke basis and the neighbor swaps that test for it are
cached per layout (``Topology.dicke_basis``, ``neighbor_swaps``), so a block
analysis does no basis work of its own; it slices, compares and commutes the
components of each size in one call each.  The analysis
depends on nothing but the term matrices, so it is made once per layout and
term set (``Topology.block_analyses``, keyed by the matrices' exact bytes,
with read-only arrays) and every later assembly with the same matrices,
at any coupling, amplitude or gate time, reuses it.

The distinct blocks of one dimension d are held as one ``BlockStack``: the
matrices M_k of every term on its B blocks, zero on a block the term does
not act on, and their commutators, exactly Hermitian (the term blocks are
completed from their lower triangle), with their 1-norms, as real arrays
(``operators.encode_terms``: up to 2x2 each matrix's coefficients on I, X,
Y and Z, above the real form of -i M_k).  ``SymmetryBlocks.propagate``
builds its own step boundaries (``step_boundaries``), one on every
breakpoint.  Each chunk of steps samples the assembly's real coefficient
functions once, at both Gauss nodes of every step, and turns them into
Magnus weights once; each stack's exponents are built from those weights
without forming dense samples.  Since
[H_2, H_1] = sum_{k<l} (c2_k c1_l - c2_l c1_k) [M_k, M_l], the exponent of
``operators`` is

    -i h H_eff = sum_k h (c1_k + c2_k) / 2 (-i M_k)
                 + sum_{k<l} (sqrt(3) h^2 / 12) (c2_k c1_l - c2_l c1_k) (-i) (-i [M_k, M_l]),

a real contraction of the chunk's weights with the stack's matrices, and the
steps match Magnus steps of dense samples (``tests/oracles.py``) to
roundoff.  Per chunk of ``operators.chunk_steps(C)`` steps for C couplings
(at most ``CHUNK`` steps and ``CHUNK_ENTRIES`` = 16 ``CHUNK`` steps x
couplings, so a stack of up to 16 couplings chunks as one coupling does),
``operators.advance`` exponentiates a stack's ``(n, C, B, d, d)`` steps
(time index first) from the weights and multiplies them out in one call, in
real form (``operators`` docstring); 1x1 and 2x2 steps sum their phases and
multiply the rest as SU(2) pairs.

Qubits are labeled 1..n; qubit 2 is the shared (modulated/pulsed) qubit in
both shipped layouts, ``PAIR`` and ``STAR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from typing import Callable, Optional, Union

import numpy as np

from xtalksim.operators import (
    HERMITICITY_TOL,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    advance,
    chunk_steps,
    embed,
    encode_terms,
    gauss_nodes,
    non_negative,
    positive,
    positive_int,
    step_boundaries,
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
    "BlockStack",
    "SymmetryBlocks",
    "assemble_hamiltonian",
    "check_assembly",
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

    @cached_property
    def neighbor_swaps(self) -> np.ndarray:
        """Flat entry indices of each swap of two adjacent neighbors, ``(m -
        1, dim**2)`` for m neighbors: M conjugated by the swap is
        ``M.ravel()[swap]``.  These swaps generate every neighbor permutation."""
        neighbors = _neighbors(self)
        labels = np.arange(self.dim).reshape((2,) * self.n_qubits)
        perms = [labels.swapaxes(p - 1, q - 1).ravel() for p, q in zip(neighbors, neighbors[1:])]
        perms = np.array(perms, dtype=int).reshape(-1, self.dim)
        return _read_only((perms[:, :, None] * self.dim + perms[:, None, :]).reshape(-1, self.dim**2))

    @cached_property
    def dicke_basis(self) -> np.ndarray:
        """``_dicke_basis`` of this layout."""
        return _read_only(_dicke_basis(self))

    @cached_property
    def exchange(self) -> np.ndarray:
        """Unit exchange matrices A + A^T and i (A - A^T) of the flip-flop sum A (``_flip_flop``)."""
        a_sum = _flip_flop(self)
        return _read_only(np.array([a_sum + a_sum.T, 1j * (a_sum - a_sum.T)]))

    @cached_property
    def paulis(self) -> dict[str, np.ndarray]:
        """The single-qubit term matrices by label: ``paulis[f"X{q}"]`` is sigma^x on
        qubit q, and ``"Y{c}"``, ``"Z{c}"`` are sigma^y, sigma^z on the center c."""
        n, c = self.n_qubits, self.center
        ops = [(f"X{q}", SIGMA_X, q) for q in range(1, n + 1)] + [(f"Y{c}", SIGMA_Y, c), (f"Z{c}", SIGMA_Z, c)]
        return {label: _read_only(embed(op, q, n)) for label, op, q in ops}

    @cached_property
    def block_analyses(self) -> dict:
        """``_block_analysis`` of each term set on this layout, by the matrices' bytes."""
        return {}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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
        if not (math.isfinite(self.delta) and self.delta != 0.0):
            raise ValueError(f"detuning must be finite and nonzero, got {self.delta}")
        non_negative("coupling", self.j)

    @classmethod
    def from_mhz(cls, delta_mhz: float, j_mhz: float) -> "SystemParams":
        return cls(delta=cyclic_mhz_to_angular(delta_mhz), j=cyclic_mhz_to_angular(j_mhz))

    @property
    def t_delta(self) -> float:
        """Half period of the coupling phase, pi / |Delta|."""
        return math.pi / abs(self.delta)

    def matched_time(self) -> float:
        """First matched gate time, 2 pi / |Delta|."""
        return 2.0 * math.pi / abs(self.delta)

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
        positive_int("cycle count", self.cycles)
        non_negative("modulation amplitude", self.gamma)

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
        if positive_int("pulse count", self.segments) < 4 or self.segments % 2:
            raise ValueError(f"pulse count must be an even integer >= 4, got {self.segments!r}")
        positive("pulse width", self.width)


ControlScheme = Union[CrosstalkOnly, FrequencyModulation, DynamicalDecoupling]


@dataclass(frozen=True)
class _Gate:
    """A gate of ``duration`` ns, positive and finite."""

    duration: float

    def __post_init__(self):
        positive("gate time", self.duration)


@dataclass(frozen=True)
class Idle(_Gate):
    """Do-nothing gate of the given duration (ns)."""


@dataclass(frozen=True)
class XGate(_Gate):
    """Pi rotation about x on one qubit."""

    target: int = 1

    def __post_init__(self):
        super().__post_init__()
        positive_int("target qubit label", self.target)


@dataclass(frozen=True)
class ParallelXX(_Gate):
    """Simultaneous X gates on qubits 1 and 2 (pair layout only)."""


GateSpec = Union[Idle, XGate, ParallelXX]


@dataclass
class AssembledHamiltonian:
    """Hamiltonian of one gate: the coupling phase plus named controls.

    ``phase`` is the vectorized coupling phase phi(t) (``coupling_phase``) of
    the exchange J (e^{i phi} sigma_q^+ sigma_c^- + h.c.) on ``topology``,
    for each J of ``couplings`` (rad/ns, possibly complex; module docstring).
    ``controls`` holds ``(channel, coefficient, matrix)`` triples: a named
    (``"X1-drive"``, ``"Z2-pulses"``, ...) vectorized real coefficient
    function of time times a constant Hermitian matrix.  The term matrices
    are ``topology.exchange``, then the controls' matrices.  ``tail`` extends
    the evaluation window past the gate (the trailing half pulse of a
    decoupling train).  ``breakpoints`` are the sorted kinks of the control
    waveforms; block propagation puts a step boundary on each of them.
    """

    topology: Topology
    phase: Callable[[np.ndarray], np.ndarray]
    controls: tuple[tuple[str, Callable[[np.ndarray], np.ndarray], np.ndarray], ...]
    gate_time: float
    tail: float = 0.0
    breakpoints: tuple[float, ...] = ()
    couplings: tuple[complex, ...] = (1.0,)

    @property
    def dim(self) -> int:
        return self.topology.dim

    @property
    def t_end(self) -> float:
        return self.gate_time + self.tail

    def _matrices(self) -> list[np.ndarray]:
        """The term matrices: the exchange pair, then each control's."""
        return [*self.topology.exchange, *(mat for _, _, mat in self.controls)]

    def blocks(self) -> "SymmetryBlocks":
        """Block-diagonal form of this Hamiltonian, derived from its term
        matrices as the module docstring describes; the layout's analysis of
        the same term matrices is reused.  Before a term set is first
        analysed, a control matrix not Hermitian to ``HERMITICITY_TOL``
        (relative to its largest entry) raises ``ValueError`` naming the channel.
        """
        mats = np.reshape(self._matrices(), (-1, self.dim, self.dim))
        analyses = self.topology.block_analyses
        key = (mats.shape, mats.dtype.str, mats.tobytes())
        if key not in analyses:
            for name, _, mat in self.controls:
                defect = np.abs(mat - mat.conj().T).max()
                if defect > HERMITICITY_TOL * np.abs(mat).max():
                    raise ValueError(f"non-Hermitian matrix on channel {name} (defect {defect:.3e})")
            analyses[key] = _block_analysis(mats, self.topology)
        return SymmetryBlocks(self, *analyses[key])

    def one_block(self) -> "SymmetryBlocks":
        """This Hamiltonian as one block of the full dimension in the
        computational basis, built and propagated as ``blocks()`` builds and
        propagates each of its blocks: the layout that ``blocks()`` reduces."""
        mats = np.reshape(self._matrices(), (-1, self.dim, self.dim))
        tol = 1e-12 * np.abs(mats).max(axis=(1, 2), initial=0.0)[:, None, None]
        return SymmetryBlocks(self, None, _block_stacks(mats, [np.arange(self.dim)], tol))

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        """Real coefficients of every term at the 1-D times ``t``, shape ``(n, C, K)``:
        the exchange pair of coupling J is Re and Im of J (cos phi + i sin phi),
        with phi sampled once.

        Raises
        ------
        ValueError
            If phi (channel ``exchange``) or a control has a nonzero imaginary
            part, naming the channel and the first such time: a complex
            coefficient times a Hermitian matrix is not Hermitian.
        """
        out = np.empty((t.size, len(self.couplings), 2 + len(self.controls)))
        phi = _real_samples("exchange", self.phase, t)
        pair = np.asarray(self.couplings, dtype=complex) * (np.cos(phi) + 1j * np.sin(phi))[:, None]
        out[..., 0], out[..., 1] = pair.real, pair.imag
        for k, (name, coeff, _) in enumerate(self.controls, start=2):
            out[..., k] = _real_samples(name, coeff, t)[:, None]
        return out


def _real_samples(name: str, coeff: Callable, t: np.ndarray) -> np.ndarray:
    """``coeff`` at the times ``t`` as a real array of their shape; ``ValueError``
    names ``name`` and the first time of a nonzero imaginary part."""
    c = np.broadcast_to(coeff(t), t.shape)
    if np.iscomplexobj(c):
        bad = np.flatnonzero(c.imag)
        if bad.size:
            raise ValueError(f"complex coefficient {c[bad[0]]} on channel {name} at t={t[bad[0]]:.9g} ns")
        c = c.real
    return c


@dataclass(frozen=True)
class BlockStack:
    """The B distinct blocks of one dimension d in term space, as exponent
    matrices: -i h H_b(t) = sum_k -i h c_k(t) M_kb.

    ``matrices`` stacks, for every term k of the assembly, M_kb on the B
    blocks, zero where the term does not act on a block, and then the
    Hermitian commutators -i [M_k, M_l] for every pair k < l, as
    ``operators.encode_terms`` encodes them: float64, ``(K + K (K - 1) / 2,
    B * e)``.  ``norms`` holds the 1-norms of each of those matrices on each
    block, shape ``(K + K (K - 1) / 2, B)``.
    ``copies[b]`` holds the index sets, in the basis's columns, of every copy
    that shares block b's matrices, shape ``(copies, d)``.
    """

    dim: int
    matrices: np.ndarray
    norms: np.ndarray
    copies: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SymmetryBlocks:
    """An assembly split into independent blocks: ``U = W (+)_b U_b W^T``.

    ``basis`` is the real orthogonal ``W`` (None for the computational
    basis), and ``stacks`` holds the distinct blocks, one stack per block
    dimension.
    """

    hamiltonian: AssembledHamiltonian
    basis: Optional[np.ndarray]
    stacks: tuple[BlockStack, ...]

    @property
    def layout(self) -> str:
        """Distinct blocks as ``{dimension}x{copies}`` in the order of their
        first index, e.g. ``10x1 6x3 2x2``."""
        blocks = sorted((rows[0, 0], s.dim, len(rows)) for s in self.stacks for rows in s.copies)
        return " ".join(f"{d}x{m}" for _, d, m in blocks)

    def propagate(self, t_start: float, t_end: float, step: float) -> np.ndarray:
        """Full-space propagators over ``[t_start, t_end]``, ``(C, dim, dim)``
        for the C couplings of the assembly, each distinct block propagated
        once.

        Steps are at most ``step`` long, with a boundary on every breakpoint
        of the assembly (``step_boundaries``).  They are built in term
        space from one set of Magnus weights per chunk, and each stack
        advances as one (module docstring); a stack whose matrices are all
        zero stays the identity.

        Raises
        ------
        ValueError
            For a complex coefficient, naming the channel and the time.
        """
        h = self.hamiltonian
        edges = step_boundaries(t_start, t_end, step, h.breakpoints)
        n_couplings = len(h.couplings)
        # (B, d, d) identities until a stack's first chunk gives it (C, B, d, d).
        units = [np.tile(np.eye(s.dim, dtype=complex), (len(s.copies), 1, 1)) for s in self.stacks]
        moving = [i for i, s in enumerate(self.stacks) if s.matrices.any()]
        for widths, times in gauss_nodes(edges, chunk_steps(n_couplings)):
            weights = _magnus_weights(h.coefficients(times), widths)
            for i in moving:
                stack = self.stacks[i]
                units[i] = advance(units[i], weights, stack.matrices, stack.norms)
        u = np.zeros((n_couplings,) + (h.dim,) * 2, dtype=complex)
        for stack, unit in zip(self.stacks, units):
            for b, rows in enumerate(stack.copies):
                u[:, rows[:, :, None], rows[:, None, :]] = unit[..., b, None, :, :]
        return u if self.basis is None else self.basis @ u @ self.basis.T


def _magnus_weights(coefficients: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Weights of the term matrices, then of the commutators of every pair k <
    l, in h H_eff (module docstring): ``(n, C, K + K (K - 1) / 2)`` from the
    ``(2 n, C, K)`` coefficients at the early, then the late Gauss nodes of
    steps of width ``widths``."""
    c1, c2 = coefficients[: widths.size], coefficients[widths.size :]
    first, second = _pairs(c1.shape[-1])
    h = widths[:, None, None]
    cross = c2[..., first] * c1[..., second] - c2[..., second] * c1[..., first]
    return np.concatenate([0.5 * h * (c1 + c2), (math.sqrt(3.0) / 12.0) * h**2 * cross], axis=-1)


@cache
def _pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``np.triu_indices(k, 1)``: every pair of k terms."""
    return tuple(_read_only(i) for i in np.triu_indices(k, 1))


def _block_analysis(mats: np.ndarray, topology: Topology) -> tuple:
    """``SymmetryBlocks`` fields after the assembly (basis, stacks) of the ``(K,
    dim, dim)`` term matrices ``mats``, as read-only arrays."""
    # The Dicke basis applies when every term commutes with each neighbor swap.
    basis = None
    swaps = topology.neighbor_swaps
    if len(swaps):
        ravelled = mats.reshape(len(mats), -1)
        defect = np.abs(np.take(ravelled, swaps, axis=1) - ravelled[:, None]).max(initial=0.0)
        if defect <= 1e-12 * np.abs(mats).max(initial=0.0):
            basis = topology.dicke_basis
    adapted = mats if basis is None else basis.T @ mats @ basis
    scales = np.abs(mats).max(axis=(1, 2), initial=0.0)
    # Entries below this are roundoff of the basis change.
    tol = 1e-12 * scales[:, None, None]
    return basis, _block_stacks(adapted, _components((np.abs(adapted) > tol).any(axis=0)), tol)


def _block_stacks(adapted: np.ndarray, components: list[np.ndarray], tol: np.ndarray) -> tuple:
    """The read-only ``BlockStack`` of each block dimension: the ``(K, dim,
    dim)`` term matrices ``adapted`` on the index sets ``components``, where
    entries of term k up to ``tol[k]`` are roundoff."""
    dim = adapted.shape[-1]
    first, second = _pairs(len(adapted))
    flat = adapted.reshape(len(adapted), -1)
    stacks = []
    # The components of one size d are sliced, compared with each other
    # and given their commutators in one call each.
    for d in dict.fromkeys(idx.size for idx in components):
        rows = np.array([idx for idx in components if idx.size == d])
        entries = (rows[:, :, None] * dim + rows[:, None, :]).reshape(len(rows), -1)
        stack = np.take(flat, entries, axis=1).reshape(len(adapted), len(rows), d, d)
        close = (np.abs(stack[:, :, None] - stack[:, None]) <= tol[..., None, None]).all(axis=(0, 3, 4))
        # Each component joins the first distinct block whose matrices it shares.
        copies: dict[int, list[int]] = {}
        for a in range(len(rows)):
            copies.setdefault(next((b for b in copies if close[a, b]), a), []).append(a)
        distinct = stack[:, list(copies)]
        # A term whose entries on a block are all roundoff does not act there.
        acting = (np.abs(distinct) > tol[:, None]).any(axis=(2, 3), keepdims=True)
        distinct = np.where(acting, distinct, 0.0)
        # -i [M_k, M_l] = -i (C - C^dag) with C = M_k M_l: exactly Hermitian.
        c = distinct[first] @ distinct[second]
        commutators = -1j * (c - c.conj().swapaxes(-1, -2))
        # Each term's blocks are completed from their lower triangle and real
        # diagonal, so they are exactly Hermitian too; -i times a matrix is exact.
        lower = np.tril(distinct, -1)
        diagonal = np.diagonal(distinct, axis1=-2, axis2=-1).real[..., None] * np.eye(d)
        hermitian = np.concatenate([lower + lower.conj().swapaxes(-1, -2) + diagonal, commutators])
        norms = np.abs(hermitian).sum(axis=-2).max(axis=-1)
        copy_rows = tuple(_read_only(rows[m]) for m in copies.values())
        stacks.append(BlockStack(d, _read_only(encode_terms(hermitian)), _read_only(norms), copy_rows))
    return tuple(stacks)


def _neighbors(topology: Topology) -> list[int]:
    return [q for q in range(1, topology.n_qubits + 1) if q != topology.center]


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
    members: dict[int, list[int]] = {}
    for i, f in enumerate(first.tolist()):
        members.setdefault(f, []).append(i)
    return [np.array(m) for m in members.values()]


def _flip_flop(topology: Topology) -> np.ndarray:
    """Sum over edges (q, c) of sigma_q^+ sigma_c^-, a real matrix: qubit q is
    bit n - q of a basis index, and each edge moves c's excitation to an empty q."""
    n = topology.n_qubits
    bits = 1 << (n - np.array(topology.edges, dtype=int).reshape(-1, 2))  # the bits of q and c
    states = np.arange(2**n)[:, None]
    source, edge = np.nonzero(((states & bits[:, 0]) == 0) & ((states & bits[:, 1]) != 0))
    a_sum = np.zeros((2**n, 2**n), dtype=complex)
    np.add.at(a_sum, (source ^ bits[edge, 0] ^ bits[edge, 1], source), 1.0)
    return a_sum


def coupling_phase(params: SystemParams, modulation: Optional[FmZModulation] = None):
    """Coupling phase phi(t) = Delta t + 2 alpha(t) as a vectorized callable.

    ``alpha`` is the accumulated phase of ``modulation``; without one the
    phase is the bare Delta t of the operation frame.
    """
    if modulation is None:
        return lambda t: params.delta * t
    return lambda t: params.delta * t + 2.0 * modulation.phase(t)


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


def check_assembly(topology: Topology, scheme: ControlScheme, gate: GateSpec) -> tuple[int, ...]:
    """Raise what ``assemble_hamiltonian`` raises for these arguments (any
    ``fm_frame`` aside) without building a term; return the X-driven qubits."""
    targets = _x_target_labels(gate, topology)
    if isinstance(scheme, FrequencyModulation):
        # Single-X gates must declare on which side of the modulation they
        # act; parallel gates drive both sides, the modulated qubit's drive
        # taking the modified form automatically.
        if isinstance(gate, XGate) and (gate.target == topology.center) != scheme.single_site:
            kind = "single-site" if scheme.single_site else "neighbor-site"
            raise ValueError(
                f"{kind} modulation cannot drive qubit {gate.target} "
                f"(modulated qubit is {topology.center})"
            )
    elif isinstance(scheme, DynamicalDecoupling):
        tau = gate.duration / scheme.segments
        width = scheme.width if scheme.pulses else 0.0
        if width >= tau:
            raise ValueError(f"pulse width {width} ns must be below the segment length {tau} ns")
    elif not isinstance(scheme, CrosstalkOnly):
        raise TypeError(
            f"unsupported control scheme {scheme!r}; combined schemes (e.g. decoupling "
            "with modulation) are not constructible"
        )
    return targets


def assemble_hamiltonian(
    params: SystemParams,
    topology: Topology,
    scheme: ControlScheme,
    gate: GateSpec,
    *,
    fm_frame: str = "modulated",
) -> AssembledHamiltonian:
    """Full time-dependent Hamiltonian of one gate over [0, T + tail].

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
    TypeError
        For an unsupported gate or control scheme.
    """
    targets = check_assembly(topology, scheme, gate)
    t_gate = gate.duration
    center = topology.center

    phase = coupling_phase(params)
    envelope = SineEnvelopeDrive(t_gate)
    x_drive, x_kinks = envelope.sample, envelope.kinks()
    # Operation-frame modulation turns the center's X drive into a quadrature pair.
    center_xy = None
    z_center = topology.paulis[f"Z{center}"]
    controls: list[tuple[str, Callable, np.ndarray]] = []
    kinks: list[float] = []
    tail = 0.0

    if isinstance(scheme, FrequencyModulation):
        modulation = scheme.modulation(t_gate)
        kinks += modulation.kinks()
        if fm_frame == "modulated":
            phase = coupling_phase(params, modulation)
        elif fm_frame == "operation":
            controls.append((f"Z{center}-modulation", modulation.sample, z_center))
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
        if scheme.pulses:
            train = NascentDeltaTrain(segments=scheme.segments, interval=tau, width=width)
            controls.append((f"Z{center}-pulses", lambda tt: (np.pi / 2.0) * train.sample(tt), z_center))
            kinks += train.kinks()
            tail = width / 2.0
        bursts = SegmentedDrive(scheme.segments, tau, width)
        x_drive, x_kinks = bursts.sample, bursts.kinks()

    for q in targets:
        if q == center and center_xy is not None:
            controls.append((f"X{q}-drive", center_xy[0], topology.paulis[f"X{q}"]))
            controls.append((f"Y{q}-drive", center_xy[1], topology.paulis[f"Y{q}"]))
        else:
            controls.append((f"X{q}-drive", x_drive, topology.paulis[f"X{q}"]))
    if targets:
        kinks += x_kinks

    return AssembledHamiltonian(
        topology=topology,
        phase=phase,
        controls=tuple(controls),
        gate_time=t_gate,
        tail=tail,
        breakpoints=tuple(sorted(set(kinks))),
        couplings=(params.j,),
    )


def target_unitary(gate: GateSpec, topology: Topology, repetitions: int = 1) -> np.ndarray:
    """Ideal propagator of ``repetitions`` consecutive gates, exact: k X gates,
    each exp(-i pi/2 X) = -i X, apply (-i)^k X^k to their target."""
    positive_int("repetitions", repetitions)
    targets = _x_target_labels(gate, topology)
    flips = [topology.paulis[f"X{q}"] for q in targets] if repetitions % 2 else []
    u = reduce(np.matmul, flips) if flips else np.eye(topology.dim, dtype=complex)
    return (1.0, -1j, -1.0, 1j)[repetitions * len(targets) % 4] * u


def static_frame_reference(params: SystemParams, topology: Topology, t: float) -> np.ndarray:
    """Bare-crosstalk idle propagator from static diagonalization.

    In the lab frame the idle Hamiltonian is time independent:
    H = -sum_q (omega_q / 2) sigma_q^z + J sum_edges (sigma^+ sigma^- + h.c.)
    with the center at omega = 0 and neighbors at omega = Delta.  Its exact
    exponential, rotated back to the operation frame, is an independent
    reference for the time-ordered integrator.
    """
    h0 = _bare_hamiltonian(params, topology)
    a_sum = _flip_flop(topology)
    h_xy = params.j * (a_sum + a_sum.conj().T)
    energies, states = np.linalg.eigh(h0 + h_xy)
    u_lab = (states * np.exp(-1j * t * energies)) @ states.conj().T
    # Undo the bare rotation: U_frame = exp(+i H0 t) U_lab, with H0 diagonal.
    return np.exp(1j * t * np.diagonal(h0))[:, None] * u_lab


def _bare_hamiltonian(params, topology) -> np.ndarray:
    """The diagonal lab-frame h0 = -sum_q (omega_q / 2) sigma_q^z of
    ``static_frame_reference``, from the basis bits: qubit q is bit n - q of a
    basis index (as in ``_flip_flop``), and sigma_q^z is 1 where it is clear."""
    n = topology.n_qubits
    states = np.arange(topology.dim)
    diagonal = np.zeros(topology.dim)
    for q in range(1, n + 1):
        omega = 0.0 if q == topology.center else params.delta
        diagonal += -(omega / 2.0) * (1.0 - 2.0 * ((states >> (n - q)) & 1))
    return np.diag(diagonal.astype(complex))
