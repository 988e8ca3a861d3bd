"""Block-reduced propagation against the dense propagator it replaces."""

import dataclasses

import numpy as np
import pytest

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
)
from xtalksim import operators
from xtalksim.operators import CHUNK, SIGMA_Z, TimeGrid, embed, propagate, unitarity_defect

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
DD = DynamicalDecoupling(segments=4, width=T_M / 16.0)
BASELINE = DynamicalDecoupling(segments=4, width=T_M / 16.0, pulses=False)
# Coarse enough for quick dense 32-dimensional runs; the reduction is exact
# at any step.
STEP = 0.02


def fm(single_site=False):
    return FrequencyModulation(cycles=8, gamma=2.0, single_site=single_site)


def reduced_and_dense(topology, scheme, gate, step=STEP):
    h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
    grid = TimeGrid.with_max_step(0.0, h.t_end, step)
    # The assembly carries one coupling; take its propagator.
    return h.blocks().propagate(grid)[0], propagate(h, grid)


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

    def test_offset_window(self):
        # Sequences propagate later windows of the same assembly.
        h = assemble_hamiltonian(PARAMS, STAR, DD, XGate(T_M, target=2), repetitions=3)
        grid = TimeGrid.with_max_step(T_M + h.tail, 2 * T_M + h.tail, STEP)
        assert np.abs(h.blocks().propagate(grid) - propagate(h, grid)).max() <= 1e-10

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

    @pytest.mark.parametrize("repetitions", [1, 3], ids=["one-chunk", "two-chunks"])
    @pytest.mark.parametrize("topology, scheme, gate, frame", CASES)
    def test_matches_dense_oracle(self, topology, scheme, gate, frame, repetitions):
        h = assemble_hamiltonian(
            PARAMS, topology, scheme, gate, repetitions=repetitions, fm_frame=frame
        )
        grid = TimeGrid.with_max_step(0.0, h.t_end, STEP, h.breakpoints)
        # Three gates take over CHUNK steps, so the first chunk ends mid-gate.
        assert (grid.n_steps > CHUNK) == (repetitions > 1)
        assert np.abs(h.blocks().propagate(grid) - propagate(h, grid)).max() <= 1e-13

    def test_operation_frame_fm_uses_every_commutator(self):
        h = assemble_hamiltonian(
            PARAMS, STAR, fm(single_site=True), XGate(T_M, target=2), fm_frame="operation"
        )
        largest, _ = h.blocks().blocks[0]
        assert largest.terms == (0, 1, 2, 3, 4)
        assert largest.matrices.shape == (5 + 10, largest.dim**2)

    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_idle_keeps_termless_blocks(self, topology):
        # The unoccupied and fully excited states couple to nothing.
        blocks = assemble_hamiltonian(PARAMS, topology, CrosstalkOnly(), Idle(T_M)).blocks()
        empty = [b for b, _ in blocks.blocks if not b.terms]
        assert [b.dim for b in empty] == [1]


class TestStacks:
    @pytest.mark.parametrize(
        "scheme, layout, calls",
        [
            (CrosstalkOnly(), "1x12 2x2 2x2 2x6", 1),
            (DD, "1x6 2x2 2x2 1x6 2x6", 2),
        ],
        ids=["cd", "dd"],
    )
    def test_one_exponential_per_dimension(self, monkeypatch, scheme, layout, calls):
        # Distinct blocks of one dimension advance as one stack: a one-chunk
        # star idle exponentiates once per dimension that carries terms.
        counted = []

        def counting(h, dt):
            counted.append(h.shape)
            return original(h, dt)

        original = operators.expm_hamiltonian
        monkeypatch.setattr(operators, "expm_hamiltonian", counting)
        h = assemble_hamiltonian(PARAMS, STAR, scheme, Idle(T_M))
        blocks = h.blocks()
        assert blocks.layout == layout
        grid = TimeGrid.with_max_step(0.0, h.t_end, STEP, h.breakpoints)
        assert grid.n_steps <= CHUNK
        blocks.propagate(grid)
        assert len(counted) == calls


class TestComplexCoefficients:
    @pytest.fixture
    def complex_drive(self):
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), XGate(T_M, target=1))
        terms = tuple(
            (name, (lambda t: (1.0 + 0.5j) * np.ones_like(t)) if name == "X1-drive" else c, m)
            for name, c, m in h.terms
        )
        return dataclasses.replace(h, terms=terms)

    def test_dense_sampling_rejects(self, complex_drive):
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.3 ns"):
            complex_drive(np.array([0.3, 0.4]))
        grid = TimeGrid.with_max_step(0.0, complex_drive.t_end, STEP)
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.00422649"):
            propagate(complex_drive, grid)

    def test_block_sampling_rejects(self, complex_drive):
        grid = TimeGrid.with_max_step(0.0, complex_drive.t_end, STEP)
        # The first sample is the early Gauss node of the first 0.02 ns step.
        with pytest.raises(ValueError, match=r"on channel X1-drive at t=0\.00422649"):
            complex_drive.blocks().propagate(grid)


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
        sizes = [(h.dim, len(copies)) for h, copies in blocks.blocks]
        assert max(d for d, _ in sizes) == 2
        assert sum(d * n for d, n in sizes) == 32

    def test_pair_idle_splits_by_excitations(self):
        blocks = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M)).blocks()
        assert blocks.basis is None
        assert sorted(h.dim * len(c) for h, c in blocks.blocks) == [2, 2]


class TestHermiticity:
    @pytest.mark.parametrize("topology", [STAR, None], ids=["star", "no-layout"])
    def test_non_hermitian_term_names_time(self, topology):
        h = AssembledHamiltonian(
            terms=(
                ("", lambda t: np.ones_like(t), embed(SIGMA_Z, 2, 5)),
                ("", lambda t: (t > 0.5).astype(float), 1e-6j * np.eye(32)),
            ),
            dim=32,
            gate_time=1.0,
            topology=topology,
        )
        blocks = h.blocks()
        assert (blocks.basis is None) == (topology is None)
        # The first sample past 0.5 ns is the early Gauss node of the step [0.5, 0.6].
        with pytest.raises(
            ValueError, match=r"non-Hermitian Hamiltonian sample at t=0\.521132487 ns"
        ):
            blocks.propagate(TimeGrid(0.0, 1.0, 10))
