"""Block-reduced propagation against the dense oracle of ``tests/oracles.py``."""

import dataclasses

import numpy as np
import oracles
import pytest
from helpers import count_calls, exponents

from xtalksim.experiments import cached_scan
from xtalksim.model import (
    PAIR,
    STAR,
    AssembledHamiltonian,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    Idle,
    ParallelXX,
    SystemParams,
    XGate,
    assemble_hamiltonian,
    target_unitary,
)
from xtalksim import experiments, model, operators
from xtalksim.operators import (
    CHUNK,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    advance,
    embed,
    gauss_nodes,
    ordered_product,
    step_boundaries,
    unitarity_defect,
)

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
DD = DynamicalDecoupling(segments=4, width=T_M / 16.0)
BASELINE = DynamicalDecoupling(segments=4, width=T_M / 16.0, pulses=False)
# Coarse enough for quick dense 32-dimensional runs; the reduction is exact
# at any step.
STEP = 0.02


def fm(single_site=False):
    return FrequencyModulation(cycles=8, gamma=2.0, single_site=single_site)


def aligned(h, t_start, t_end, step=STEP):
    """The boundaries block propagation builds: one on every breakpoint."""
    return step_boundaries(t_start, t_end, step, h.breakpoints)


def reduced_and_dense(topology, scheme, gate, step=STEP):
    h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
    # The assembly carries one coupling; take its propagator.
    return h.blocks().propagate(0.0, h.t_end, step)[0], oracles.propagate(h, aligned(h, 0.0, h.t_end, step))


SCHEMES = {"CD": CrosstalkOnly(), "FM": fm(), "DD": DD, "baseline": BASELINE}

STAR_CASES = [
    case
    for name, scheme in SCHEMES.items()
    for case in (
        pytest.param(scheme, Idle(T_M), id=f"{name}-idle"),
        pytest.param(
            fm(single_site=True) if name == "FM" else scheme,
            XGate(T_M, target=2),
            id=f"{name}-x-center",
        ),
        pytest.param(scheme, XGate(T_M, target=1), id=f"{name}-x-neighbor"),
    )
]

PAIR_CASES = [
    pytest.param(scheme, gate, id=f"{name}-{label}")
    for name, scheme in SCHEMES.items()
    for label, gate in (
        ("idle", Idle(T_M)),
        ("x", XGate(T_M, target=1)),
        ("parallel-xx", ParallelXX(T_M)),
    )
]


class TestReducedMatchesDense:
    @pytest.mark.parametrize("scheme, gate", STAR_CASES)
    def test_star(self, scheme, gate):
        u, dense = reduced_and_dense(STAR, scheme, gate)
        assert np.abs(u - dense).max() <= 1e-10
        assert unitarity_defect(u) <= 1e-10

    @pytest.mark.parametrize("scheme, gate", PAIR_CASES)
    def test_pair(self, scheme, gate):
        u, dense = reduced_and_dense(PAIR, scheme, gate)
        assert np.abs(u - dense).max() <= 1e-10

    @pytest.mark.parametrize(
        "scheme, gate", [(DD, XGate(T_M, target=2)), (fm(), Idle(T_M))], ids=["DD-x-center", "FM-idle"]
    )
    def test_oracle_is_independent(self, monkeypatch, scheme, gate):
        # The dense oracle forms its own commutators and exponentiates by
        # eigh: with the Magnus weights and the Taylor body of the blocks
        # made to raise, it still matches them.
        h = assemble_hamiltonian(PARAMS, STAR, scheme, gate)
        u = h.blocks().propagate(0.0, h.t_end, STEP)[0]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached a kernel of the blocks")

        monkeypatch.setattr(operators, "_expm_taylor", forbidden)
        monkeypatch.setattr(model, "_magnus_weights", forbidden)
        assert np.abs(u - oracles.propagate(h, aligned(h, 0.0, h.t_end))).max() <= 1e-13

    def test_offset_window(self):
        # A sequence's second window is the steady window with the coupling
        # phase advanced by one gate: it matches that window of the
        # uninterrupted run, at the matched time and off it.
        for t_gate in (T_M, 25.0):
            h = assemble_hamiltonian(PARAMS, STAR, DD, XGate(t_gate, target=2))
            second = list(experiments._windowed_propagators(h, PARAMS, 3, STEP))[1]
            run = oracles.gate_run(h, 3)
            dense = oracles.propagate(run, aligned(run, t_gate + h.tail, 2 * t_gate + h.tail))
            assert np.abs(second[0] - dense).max() <= 1e-10, t_gate

    def test_polar_factor_infidelity_at_selected_idle_amplitude(self):
        # The reduced and dense propagators differ by roundoff only: their
        # polar factors score the same infidelity.
        scan = cached_scan("fm2-idle", PARAMS, 8, T_M)
        scheme = FrequencyModulation(cycles=8, gamma=scan.gamma_opt)
        infidelities = []
        for u in reduced_and_dense(STAR, scheme, Idle(T_M), step=0.002):
            left, _, right = np.linalg.svd(u)
            infidelities.append(1.0 - abs(np.trace(left @ right)) / u.shape[0])
        assert abs(infidelities[0] - infidelities[1]) <= 1e-14


class TestOneBlock:
    """``one_block``: the full-dimension layout that ``blocks()`` reduces."""

    @pytest.mark.parametrize(
        "topology, scheme, gate",
        [
            pytest.param(STAR, DD, XGate(T_M, target=2), id="star-DD-x-center"),
            pytest.param(STAR, fm(single_site=True), XGate(T_M, target=2), id="star-FM-x-center"),
            pytest.param(STAR, fm(), Idle(T_M), id="star-FM-idle"),
            pytest.param(STAR, CrosstalkOnly(), Idle(T_M), id="star-CD-idle"),
            pytest.param(PAIR, DD, XGate(T_M, target=1), id="pair-DD-x"),
            pytest.param(PAIR, fm(), ParallelXX(T_M), id="pair-FM-parallel-xx"),
            pytest.param(PAIR, CrosstalkOnly(), Idle(T_M), id="pair-CD-idle"),
        ],
    )
    def test_matches_blocks(self, topology, scheme, gate):
        h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
        u, one = (b.propagate(0.0, h.t_end, STEP) for b in (h.blocks(), h.one_block()))
        assert np.abs(u - one).max() <= 1e-13

    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_holds_the_dense_terms_and_commutators(self, topology):
        # One block in the computational basis, whose exponent matrices are
        # -i M_k of every term and -i [M_k, M_l] of every pair k < l.
        h = assemble_hamiltonian(PARAMS, topology, DD, XGate(T_M, target=1))
        one = h.one_block()
        d = h.dim
        assert (one.basis, one.layout) == (None, f"{d}x1")
        (stack,) = one.stacks
        np.testing.assert_array_equal(stack.copies[0], [np.arange(d)])
        mats = np.reshape(h._matrices(), (-1, d, d))
        first, second = np.triu_indices(len(mats), 1)
        c = mats[first] @ mats[second]
        expect = np.concatenate([-1j * mats, -(c - c.conj().swapaxes(-1, -2))])
        decoded = stack.matrices.reshape(len(expect), 2 * d, 2 * d)
        assert np.abs(decoded[:, :d, :d] + 1j * decoded[:, d:, :d] - expect).max() <= 1e-15


class TestTermSpace:
    """Term-space Magnus steps against the sample-based dense oracle."""

    CASES = [
        pytest.param(
            STAR, fm(single_site=True), XGate(T_M, target=2), "operation", id="star-fm-op-x"
        ),
        pytest.param(PAIR, fm(), ParallelXX(T_M), "operation", id="pair-fm-op-parallel-xx"),
        pytest.param(STAR, BASELINE, XGate(T_M, target=2), "modulated", id="star-baseline-x"),
        pytest.param(PAIR, BASELINE, XGate(T_M, target=1), "modulated", id="pair-baseline-x"),
        pytest.param(STAR, CrosstalkOnly(), Idle(T_M), "modulated", id="star-cd-idle"),
        pytest.param(PAIR, CrosstalkOnly(), Idle(T_M), "modulated", id="pair-cd-idle"),
        pytest.param(STAR, DD, Idle(T_M), "modulated", id="star-dd-idle"),
    ]

    @pytest.mark.parametrize("split", [1, 3], ids=["one-chunk", "two-chunks"])
    @pytest.mark.parametrize("topology, scheme, gate, frame", CASES)
    def test_matches_dense_oracle(self, topology, scheme, gate, frame, split):
        h = assemble_hamiltonian(PARAMS, topology, scheme, gate, fm_frame=frame)
        step = STEP / split
        edges = aligned(h, 0.0, h.t_end, step)
        # A third of the step takes over CHUNK steps, so the first chunk ends mid-gate.
        assert (len(edges) - 1 > CHUNK) == (split > 1)
        assert np.abs(h.blocks().propagate(0.0, h.t_end, step) - oracles.propagate(h, edges)).max() <= 1e-13

    def test_window_grid_sits_on_every_kink(self):
        # The off-lattice steady window of a decoupled sequence: the block
        # propagator builds the breakpoint grid itself, and a uniform grid of
        # the same step lands visibly elsewhere.
        h = assemble_hamiltonian(PARAMS, STAR, DD, XGate(T_M, target=2))
        window = (h.tail, T_M + h.tail)
        u = h.blocks().propagate(*window, STEP)
        assert np.abs(u - oracles.propagate(h, aligned(h, *window))).max() <= 1e-13
        assert np.abs(u - oracles.propagate(h, step_boundaries(*window, STEP))).max() > 1e-6

    def test_operation_frame_fm_uses_every_commutator(self):
        h = assemble_hamiltonian(
            PARAMS, STAR, fm(single_site=True), XGate(T_M, target=2), fm_frame="operation"
        )
        largest = max(h.blocks().stacks, key=lambda s: s.matrices.size)
        # Each matrix in its real form, 2d x 2d.
        assert largest.matrices.shape == (5 + 10, (2 * largest.dim) ** 2)
        # Every term and every commutator acts on the block.
        assert np.abs(largest.matrices).max(axis=1).min() > 0.0

    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_idle_keeps_termless_blocks(self, topology):
        # The unoccupied and fully excited states couple to nothing.
        blocks = assemble_hamiltonian(PARAMS, topology, CrosstalkOnly(), Idle(T_M)).blocks()
        empty = [
            s.dim
            for s in blocks.stacks
            for block in s.matrices.reshape(len(s.matrices), len(s.copies), -1).swapaxes(0, 1)
            if not block.any()
        ]
        assert empty == [1]


class TestStacks:
    @pytest.mark.parametrize(
        "topology, gate, dims",
        [(STAR, XGate(T_M, target=2), [2, 6, 10]), (STAR, Idle(T_M), [1, 2]), (PAIR, XGate(T_M, target=1), [4])],
        ids=["star-center-x", "star-idle", "pair-x"],
    )
    def test_matrices_are_real_for_every_dimension(self, topology, gate, dims):
        # Pauli coefficients up to 2x2, real forms of -i M above: float64 throughout.
        stacks = assemble_hamiltonian(PARAMS, topology, DD, gate).blocks().stacks
        assert sorted(s.dim for s in stacks) == dims
        for s in stacks:
            entries = s.dim**2 if s.dim <= 2 else (2 * s.dim) ** 2
            assert s.matrices.dtype == np.float64
            assert s.matrices.shape == (len(s.norms), len(s.copies) * entries)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    def test_reads_lower_triangle_and_real_diagonal(self, d):
        # Each term's block is completed from its lower triangle and real
        # diagonal: noise above the diagonal and on the imaginary diagonal
        # changes no term's exponent matrix and no term's norm.  (The
        # commutators are formed from the matrices as given, which
        # ``blocks()`` checks to be Hermitian.)
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        h = a + a.conj().swapaxes(-1, -2)
        noise = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
        diagonal = np.diagonal(noise.real, axis1=1, axis2=2)[..., None] * np.eye(d)
        garbled = h + np.triu(noise, 1) + 1j * diagonal
        tol = np.full((2, 1, 1), 1e-12)
        (stack,) = model._block_stacks(h, [np.arange(d)], tol)
        (read,) = model._block_stacks(garbled, [np.arange(d)], tol)
        np.testing.assert_array_equal(read.matrices[:2], stack.matrices[:2])
        np.testing.assert_array_equal(read.norms[:2], stack.norms[:2])
        np.testing.assert_array_equal(stack.matrices[:2], operators.encode_terms(h[:, None]))

    @pytest.mark.parametrize(
        "scheme, layout, dims",
        [
            (CrosstalkOnly(), "1x12 2x2 2x2 2x6", [2]),
            (DD, "1x6 2x2 2x2 1x6 2x6", [1, 2]),
        ],
        ids=["cd", "dd"],
    )
    def test_one_exponential_per_dimension(self, monkeypatch, scheme, layout, dims):
        # Distinct blocks of one dimension advance as one stack: a one-chunk
        # star idle calls the closed-form kernel once per dimension that
        # carries terms, and never the Taylor exponential.
        counted = count_calls(monkeypatch, operators, "_pauli_product", lambda w, m, d: d)
        taylor = count_calls(monkeypatch, operators, "_expm_taylor", lambda n, d, *_: d)
        h = assemble_hamiltonian(PARAMS, STAR, scheme, Idle(T_M))
        blocks = h.blocks()
        assert blocks.layout == layout
        assert len(aligned(h, 0.0, h.t_end)) - 1 <= CHUNK
        blocks.propagate(0.0, h.t_end, STEP)
        assert sorted(counted) == dims
        assert taylor == []

    @pytest.mark.parametrize("scheme", [CrosstalkOnly(), DD], ids=["cd", "dd"])
    def test_idle_takes_no_dense_exponential_or_product(self, monkeypatch, scheme):
        # Star idle blocks are at most 2x2: their steps are multiplied as
        # phases and SU(2) pairs, with no matrix exponential or matrix product.
        exponentials = count_calls(monkeypatch, operators, "_expm_taylor")
        products = count_calls(monkeypatch, operators, "ordered_product")
        h = assemble_hamiltonian(PARAMS, STAR, scheme, Idle(T_M))
        assert len(aligned(h, 0.0, h.t_end)) - 1 <= CHUNK
        h.blocks().propagate(0.0, h.t_end, STEP)
        assert (len(exponentials), len(products)) == (0, 0)

    @pytest.mark.parametrize("scheme, calls", [(CrosstalkOnly(), 1), (DD, 2)], ids=["cd", "dd"])
    def test_one_generator_contraction_per_stack(self, monkeypatch, scheme, calls):
        # A one-chunk star idle builds the exponents of each stack that
        # carries terms in one call: the termless 1x1 blocks of the
        # crosstalk-only idle stay the identity.
        counted = count_calls(monkeypatch, model, "advance")
        h = assemble_hamiltonian(PARAMS, STAR, scheme, Idle(T_M))
        h.blocks().propagate(0.0, h.t_end, STEP)
        assert len(counted) == calls

    def test_magnus_weights_once_per_chunk(self, monkeypatch):
        # The center-X gate's 10-, 6- and 2-dimensional stacks all contract
        # the one set of weights their chunk builds.
        weights = count_calls(monkeypatch, model, "_magnus_weights")
        stacks = count_calls(monkeypatch, model, "advance", lambda u, *_: u.shape[-1])
        h = assemble_hamiltonian(PARAMS, STAR, DD, XGate(T_M, target=2))
        blocks = h.blocks()
        assert len(aligned(h, 0.0, h.t_end)) - 1 <= CHUNK
        blocks.propagate(0.0, h.t_end, STEP)
        assert len(weights) == 1
        assert sorted(stacks) == [2, 6, 10]

    @pytest.mark.parametrize(
        "scheme", [CrosstalkOnly(), fm(single_site=True), DD, BASELINE], ids=SCHEMES
    )
    def test_center_x_exponents_stay_in_term_space(self, monkeypatch, scheme):
        # The 10x10 and 6x6 steps of a star center-X gate are exponentiated
        # from their Magnus weights, and the 2x2 steps by the closed-form
        # kernel: every Taylor exponential contracts term-space weights.
        taylor = count_calls(monkeypatch, operators, "_expm_taylor", lambda n, d, *_: d)
        terms = count_calls(monkeypatch, operators, "_term_exponentials")
        pauli = count_calls(monkeypatch, operators, "_pauli_product", lambda w, m, d: d)
        stacks = count_calls(monkeypatch, model, "advance", lambda u, *_: u.shape[-1])
        h = assemble_hamiltonian(PARAMS, STAR, scheme, XGate(T_M, target=2))
        h.blocks().propagate(0.0, h.t_end, STEP)
        assert sorted(stacks) == [2, 6, 10]
        assert (sorted(taylor), len(terms), pauli) == ([6, 10], 2, [2])

    @staticmethod
    def stack_chunk(gate, d):
        """The first chunk's Magnus weights of a star DD ``gate``, and its d x d stack."""
        h = assemble_hamiltonian(PARAMS, STAR, DD, gate)
        (stack,) = [s for s in h.blocks().stacks if s.dim == d]
        widths, times = next(gauss_nodes(aligned(h, 0.0, h.t_end), CHUNK))
        return model._magnus_weights(h.coefficients(times), widths), stack

    @staticmethod
    def one_by_one_chunk():
        """The first chunk's Magnus weights of a star DD idle, and its 1x1 stack."""
        return TestStacks.stack_chunk(Idle(T_M), 1)

    def test_one_by_one_steps_sum_phases(self, monkeypatch):
        weights, stack = self.one_by_one_chunk()
        g = 1j * exponents(stack, weights)
        assert g.shape[0] > 1000 and np.abs(g.sum(axis=0)).min() > 1.0
        u = np.exp(1j * np.arange(g[0].size)).reshape(g.shape[1:])
        stepwise = ordered_product(np.exp(-1j * g)) @ u
        kernels = count_calls(monkeypatch, operators, "_pauli_product", lambda w, m, d: d)
        exponentials = count_calls(monkeypatch, operators, "_expm_taylor")
        products = count_calls(monkeypatch, operators, "ordered_product")
        assert np.abs(advance(u, weights, stack.matrices, stack.norms) - stepwise).max() <= 1e-15
        assert (kernels, len(exponentials), len(products)) == ([1], 0, 0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_one_by_one_steps_reject_non_finite(self, bad):
        weights, stack = self.one_by_one_chunk()
        weights[7, 0, 1] = bad
        u = np.ones((1, len(stack.copies), 1, 1), dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            advance(u, weights, stack.matrices, stack.norms)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "gate, d", [(Idle(T_M), 2), (XGate(T_M, target=2), 10)], ids=["two-level", "taylor"]
    )
    def test_steps_reject_non_finite(self, gate, d, bad):
        # Every weight of the chunk is finite but one, on a term that acts
        # on the stack.
        weights, stack = self.stack_chunk(gate, d)
        weights[7, 0, 1] = bad
        u = np.ones((1, len(stack.copies), d, d), dtype=complex)
        with pytest.raises(ValueError, match="non-finite"):
            advance(u, weights, stack.matrices, stack.norms)


class TestComplexCoefficients:
    @pytest.fixture
    def complex_drive(self):
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), XGate(T_M, target=1))
        ((name, _, m),) = h.controls
        assert name == "X1-drive"
        return dataclasses.replace(h, controls=((name, lambda t: (1.0 + 0.5j) * np.ones_like(t), m),))

    def test_dense_sampling_rejects(self, complex_drive):
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.3 ns"):
            oracles.hamiltonian(complex_drive, np.array([0.3, 0.4]))
        edges = step_boundaries(0.0, complex_drive.t_end, STEP)
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.00422649"):
            oracles.propagate(complex_drive, edges)

    def test_block_sampling_rejects(self, complex_drive):
        # The first sample is the early Gauss node of the first 0.02 ns step.
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.00422649"):
            complex_drive.blocks().propagate(0.0, complex_drive.t_end, STEP)


class TestLayout:
    @pytest.mark.parametrize(
        "scheme", [CrosstalkOnly(), fm(single_site=True), DD, BASELINE], ids=SCHEMES
    )
    def test_star_center_x(self, scheme):
        h = assemble_hamiltonian(PARAMS, STAR, scheme, XGate(T_M, target=2))
        blocks = h.blocks()
        assert blocks.layout == "10x1 6x3 2x2"
        assert blocks.basis is not None
        assert np.allclose(blocks.basis.T @ blocks.basis, np.eye(32), atol=1e-14)

    def test_driven_neighbor_is_one_block(self):
        h = assemble_hamiltonian(PARAMS, STAR, DD, XGate(T_M, target=1))
        blocks = h.blocks()
        assert blocks.layout == "32x1"
        assert blocks.basis is None

    def test_star_idle_conserves_excitations(self):
        blocks = assemble_hamiltonian(PARAMS, STAR, DD, Idle(T_M)).blocks()
        sizes = [(s.dim, len(copies)) for s in blocks.stacks for copies in s.copies]
        assert max(d for d, _ in sizes) == 2
        assert sum(d * n for d, n in sizes) == 32

    def test_pair_idle_splits_by_excitations(self):
        blocks = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M)).blocks()
        assert blocks.basis is None
        assert sorted(s.dim * len(c) for s in blocks.stacks for c in s.copies) == [2, 2]


class TestHermiticity:
    @pytest.mark.parametrize("topology", [STAR], ids=["star"])
    def test_non_hermitian_term_names_channel(self, topology):
        h = AssembledHamiltonian(
            topology=topology,
            phase=lambda t: PARAMS.delta * t,
            controls=(
                ("Z2", lambda t: np.ones_like(t), embed(SIGMA_Z, 2, 5)),
                ("leak", lambda t: (t > 0.5).astype(float), 1e-6j * np.eye(32)),
            ),
            gate_time=1.0,
        )
        analysed = len(topology.block_analyses)
        # The Hermitian Z2 passes; the leak (M - M^dag = 2e-6 i) is rejected
        # before its term set is analysed, whatever its coefficient.
        with pytest.raises(
            ValueError, match=r"^non-Hermitian matrix on channel leak \(defect 2\.000e-06\)$"
        ):
            h.blocks()
        assert len(topology.block_analyses) == analysed


class TestLayoutInvariants:
    def test_dicke_basis_built_once_per_layout(self, monkeypatch):
        built = count_calls(monkeypatch, model, "_dicke_basis")
        star = dataclasses.replace(STAR)  # a fresh layout: nothing computed yet
        for scheme, gate in [
            (CrosstalkOnly(), Idle(T_M)),
            (DD, Idle(T_M)),
            (DD, XGate(T_M, target=2)),
            (fm(single_site=True), XGate(T_M, target=2)),
        ] * 2:
            blocks = assemble_hamiltonian(PARAMS, star, scheme, gate).blocks()
            assert blocks.basis is star.dicke_basis
        assert len(built) == 1

    def test_invariants_are_read_only(self):
        for invariant in (STAR.dicke_basis, STAR.neighbor_swaps, STAR.exchange, *STAR.paulis.values()):
            with pytest.raises(ValueError):
                invariant[0, 0] = 0

    def test_term_matrices_built_once_per_layout(self, monkeypatch):
        flip_flops = count_calls(monkeypatch, model, "_flip_flop")
        embeds = count_calls(monkeypatch, model, "embed")
        star = dataclasses.replace(STAR)  # a fresh layout: nothing built yet
        for scheme, gate, frame in [
            (DD, Idle(T_M), "modulated"),
            (DD, XGate(T_M, target=1), "modulated"),
            (fm(single_site=True), XGate(T_M, target=2), "operation"),
        ] * 2:
            assemble_hamiltonian(PARAMS, star, scheme, gate, fm_frame=frame).blocks()
            target_unitary(gate, star)
        # One flip-flop sum; sigma^x on each of the 5 qubits, sigma^y and sigma^z on the center.
        assert (len(flip_flops), len(embeds)) == (1, 7)

    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_term_matrices_equal_kronecker_products(self, topology):
        # Byte for byte, so analyses keyed by the matrices' bytes keep hitting.
        n, c = topology.n_qubits, topology.center
        ops = [(f"X{q}", SIGMA_X, q) for q in range(1, n + 1)] + [(f"Y{c}", SIGMA_Y, c), (f"Z{c}", SIGMA_Z, c)]
        assert list(topology.paulis) == [label for label, _, _ in ops]
        for label, pauli, q in ops:
            assert topology.paulis[label].tobytes() == embed(pauli, q, n).tobytes()
        a = oracles.flip_flop(topology)
        assert topology.exchange.tobytes() == np.array([a + a.T, 1j * (a - a.T)]).tobytes()


class TestAnalysisMemo:
    """A layout analyses each term set once; later assemblies reuse it."""

    def test_same_term_set_reuses_analysis(self, monkeypatch):
        star = dataclasses.replace(STAR)  # a fresh layout: nothing analysed yet
        first = assemble_hamiltonian(PARAMS, star, DD, Idle(T_M)).blocks()
        searches = count_calls(monkeypatch, model, "_components")
        # Another coupling and gate time: the same term matrices.
        other = SystemParams.from_mhz(50.0, 2.0)
        h = assemble_hamiltonian(other, star, DD, Idle(30.0))
        second = h.blocks()
        assert searches == []
        assert second.hamiltonian is h
        assert second.stacks is first.stacks and second.basis is first.basis
        arrays = [second.basis] + [a for s in second.stacks for a in (s.matrices, *s.copies)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0

    def test_fm_corner_amplitudes_share_one_analysis(self):
        star = dataclasses.replace(STAR)
        corners = [FrequencyModulation(cycles=8, gamma=g) for g in (1.9, 2.1)]
        assemblies = [assemble_hamiltonian(PARAMS, star, fm, Idle(T_M)) for fm in corners]
        blocks = [h.blocks() for h in assemblies]
        assert len(star.block_analyses) == 1
        assert blocks[0].stacks is blocks[1].stacks
        for h, shared in zip(assemblies, blocks):
            # The same assembly on a fresh layout analyses from an empty memo.
            fresh = dataclasses.replace(h, topology=dataclasses.replace(STAR)).blocks()
            assert fresh.stacks is not shared.stacks
            assert np.array_equal(
                shared.propagate(0.0, h.t_end, STEP), fresh.propagate(0.0, h.t_end, STEP)
            )

    def test_other_target_or_scheme_gets_its_own_analysis(self, monkeypatch):
        star = dataclasses.replace(STAR)
        searches = count_calls(monkeypatch, model, "_components")
        runs = [
            (DD, XGate(T_M, target=2), "10x1 6x3 2x2"),
            (DD, XGate(T_M, target=1), "32x1"),
            (CrosstalkOnly(), XGate(T_M, target=1), "32x1"),
            (DD, Idle(T_M), "1x6 2x2 2x2 1x6 2x6"),
        ]
        for scheme, gate, layout in runs:
            assert assemble_hamiltonian(PARAMS, star, scheme, gate).blocks().layout == layout
        assert len(searches) == len(star.block_analyses) == len(runs)
