"""Block-reduced propagation against the dense propagator it replaces."""

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
from xtalksim.operators import SIGMA_Z, TimeGrid, embed, propagate, unitarity_defect

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
    return h.blocks().propagate(grid), propagate(h, grid)


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
