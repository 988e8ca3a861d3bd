import dataclasses
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
import scipy.linalg
from helpers import PAULIS, exponents, hermiticity_defect, refined

from xtalksim import model, operators
from xtalksim.experiments import DEFAULT_STEP
from xtalksim.model import (
    PAIR,
    STAR,
    DynamicalDecoupling,
    FrequencyModulation,
    Idle,
    SystemParams,
    XGate,
    assemble_hamiltonian,
)
from xtalksim.operators import (
    CHUNK,
    EXPM_BATCH_ENTRIES,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    THETA_8,
    advance,
    chunk_steps,
    embed,
    gauss_nodes,
    ordered_product,
    step_boundaries,
    unitarity_defect,
)

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
DD = DynamicalDecoupling(segments=4, width=T_M / 16.0)


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2.0


def with_norm(h, dt, norm):
    """``h`` rescaled so that ``dt * ||h||_1`` equals ``norm``."""
    return h * (norm / (dt * np.abs(h).sum(axis=-2).max()))


def taylor(weights, terms):
    """exp(-i sum_k weights[n, k] terms[k]) of each step n, ``(n, d, d)``: the
    Taylor exponentials of ``_term_exponentials`` on one block of the
    Hermitian ``(K, d, d)`` terms, d >= 3."""
    d = terms.shape[-1]
    with np.errstate(invalid="ignore"):  # -i times an infinite entry has a NaN part
        matrices = operators.encode_terms(terms[:, None])
    norms = np.abs(terms).sum(axis=-2).max(axis=-1)[:, None]
    u = np.empty((len(weights), d, d), dtype=complex)
    start = 0
    for steps in operators._term_exponentials(weights[:, None], matrices, norms):
        u[start : start + len(steps)] = steps[:, 0, 0, :d, :d] + 1j * steps[:, 0, 0, d:, :d]
        start += len(steps)
    return u


def expm(h, dt):
    """exp(-i dt h) of a Hermitian ``(d, d)`` h, or of each of a ``(n, d, d)``
    stack, as ``advance`` takes a step: above 2x2 by ``taylor`` with one term
    per matrix, up to 2x2 by the closed form with one block per matrix."""
    h = np.asarray(h, dtype=complex)
    stack = h.reshape(-1, *h.shape[-2:])
    n, d = stack.shape[:2]
    if d > 2:
        u = taylor(np.diag(np.full(n, dt)), stack)
    else:
        norms = np.abs(stack).sum(axis=-2).max(axis=-1)[None]
        weights = np.full((1, 1, 1), dt)
        u = advance(np.broadcast_to(np.eye(d), stack.shape), weights, operators.encode_terms(stack[None]), norms)
    return u.reshape(h.shape)


class TestStepBoundaries:
    def test_exact_multiple_keeps_step(self):
        edges = step_boundaries(0.0, 20.0, 0.002)
        assert len(edges) - 1 == 10000
        assert np.diff(edges).max() == pytest.approx(0.002, rel=1e-12)

    def test_non_multiple_rounds_down(self):
        edges = step_boundaries(0.0, 1.0, 0.3)
        assert len(edges) - 1 == 4
        assert np.diff(edges).max() <= 0.3

    def test_offset_window(self):
        edges = step_boundaries(0.625, 20.625, 0.01)
        assert edges[0] == pytest.approx(0.625)
        assert edges[-1] == pytest.approx(20.625)
        assert np.diff(edges) == pytest.approx(np.full(len(edges) - 1, 0.01), rel=1e-9)

    def test_halved_doubles_steps(self):
        edges = np.linspace(0.0, 2.0, 8)
        assert len(refined(edges, 2)) - 1 == 14
        assert refined(edges, 2)[-1] == edges[-1]
        assert refined(edges, 2)[::2] == pytest.approx(edges, abs=1e-15)

    def test_breakpoints_are_step_boundaries(self):
        edges = step_boundaries(0.0, 2.0, 0.3, [0.25, 1.0, 1.0 + 1e-12, 5.0, -1.0, 2.0])
        # Out-of-window, end and near-duplicate breakpoints are dropped: one
        # piece of one step, one of three and one of four.
        assert len(edges) - 1 == 1 + 3 + 4
        assert edges[[0, 1, 4, 8]] == pytest.approx([0.0, 0.25, 1.0, 2.0], abs=1e-15)
        assert np.diff(edges).max() == pytest.approx(0.25)
        halved = refined(edges, 2)
        assert len(halved) - 1 == 16
        assert halved[::2] == pytest.approx(edges, abs=1e-15)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            step_boundaries(1.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            step_boundaries(0.0, 1.0, -0.1)

    @pytest.mark.parametrize("window", [(0.0, np.inf), (np.nan, 1.0)], ids=["inf-end", "nan-start"])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(ValueError, match="window must be finite"):
            step_boundaries(*window, 0.02)

    @pytest.mark.parametrize("step", [np.inf, np.nan], ids=["inf", "nan"])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="step must be positive"):
            step_boundaries(0.0, 20.0, step)


class TestAlgebra:
    def test_embed_places_single_qubit(self):
        assert np.allclose(embed(SIGMA_Z, 1, 2), np.kron(SIGMA_Z, np.eye(2)))
        assert np.allclose(embed(SIGMA_Z, 2, 2), np.kron(np.eye(2), SIGMA_Z))
        full = embed(SIGMA_X, 3, 5)
        assert full.shape == (32, 32)
        expect = np.kron(np.kron(np.eye(4), SIGMA_X), np.eye(4))
        assert np.allclose(full, expect)

    def test_pauli_commutator(self):
        assert np.allclose(SIGMA_X @ SIGMA_Y - SIGMA_Y @ SIGMA_X, 2j * SIGMA_Z)

    def test_defect_measures(self):
        rng = np.random.default_rng(1)
        h = random_hermitian(rng, 4)
        assert hermiticity_defect(h) < 1e-15
        assert hermiticity_defect(h + 1e-3j * np.eye(4)) > 1e-4
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        assert unitarity_defect(q) < 1e-14
        assert unitarity_defect(1.001 * q) > 1e-4


class TestExpm:
    """The step exponentials of ``advance`` against scipy and each other."""

    def test_matches_scipy(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng, 4)
        dt = 0.37
        assert np.allclose(expm(h, dt), scipy.linalg.expm(-1j * dt * h), atol=1e-12)

    def test_batch_mode(self):
        rng = np.random.default_rng(3)
        hs = np.stack([random_hermitian(rng, 4) for _ in range(5)])
        batch = expm(hs, 0.1)
        for k in range(5):
            assert np.allclose(batch[k], expm(hs[k], 0.1), atol=1e-13)

    def test_two_level_closed_form_matches_scipy(self):
        rng = np.random.default_rng(6)
        hs = np.stack([random_hermitian(rng, 2) for _ in range(5)] + [2.5 * np.eye(2)])
        batch = expm(hs, 0.37)
        for h, u in zip(hs, batch):
            assert np.allclose(u, scipy.linalg.expm(-0.37j * h), atol=1e-14)

    def test_two_level_product_keeps_unit_norm(self):
        # Exchange-only blocks [[0, b*], [b, 0]] = Re b X + Im b Y: steps a
        # hair short of unit norm would shrink this 10^4-step product by
        # about 1.6e-12.  The closed-form kernel multiplies it without a
        # Newton-Schulz step.
        t = np.linspace(0.0, 20.0, 10000)
        b = 0.0628 * np.exp(0.314j * t)
        coefficients = operators.encode_terms(np.array([[SIGMA_X], [SIGMA_Y]]))
        weights = 0.002 * np.stack([b.real, b.imag], axis=-1)[:, None]
        s = np.linalg.svd(operators._pauli_product(weights, coefficients, 2)[0, 0], compute_uv=False)
        assert np.abs(1.0 - s).max() < 1e-12

    def test_exactly_unitary(self):
        rng = np.random.default_rng(4)
        u = expm(random_hermitian(rng, 8), 15.0)
        assert unitarity_defect(u) < 1e-13

    @pytest.mark.parametrize("d", [1, 3, 4, 6, 10, 32])
    @pytest.mark.parametrize("norm", [0.0, 1e-3, THETA_8, 0.5, 15.0, 1000.0])
    def test_matches_scipy_across_norms(self, d, norm):
        # norm is dt ||h||_1: 0.5, 15 and 1000 take 3, 8 and 14 squarings.
        dt = 0.37
        h = with_norm(random_hermitian(np.random.default_rng(d), d), dt, norm)
        u = expm(h, dt)
        assert np.abs(u - scipy.linalg.expm(-1j * dt * h)).max() <= 1e-12
        assert unitarity_defect(u) <= 1e-13

    def test_three_product_scheme_is_taylor_8(self):
        # Expand the scheme in a scalar x: the coefficients of T_8 are 1/k!.
        x = np.polynomial.Polynomial([0.0, 1.0])
        x2 = x * x
        x4 = x2 * (operators._BBC_8_A1 * x + operators._BBC_8_A2 * x2)
        s, left, right = (sum(w * p for w, p in zip(row, [1.0, x, x2, x4])) for row in operators._BBC_8)
        coef = (s + left * right).coef
        assert coef.size == 9
        np.testing.assert_allclose(coef, [1.0 / math.factorial(k) for k in range(9)], rtol=0.0, atol=1e-16)

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 1036])
    @pytest.mark.parametrize("d", [3, 4, 6, 10])
    def test_batch_equals_per_matrix(self, d, n):
        # Sub-batches hold 455 3x3, 256 4x4, 113 6x6 or 40 10x10 matrices.
        # Norms up to 4 give each matrix its own number of squarings (0 to 6).
        assert EXPM_BATCH_ENTRIES // 16 == 256
        rng = np.random.default_rng(n)
        hs = np.stack([with_norm(random_hermitian(rng, d), 1.0, 1.0) for _ in range(n)])
        hs *= rng.uniform(0.0, 4.0, size=(n, 1, 1))
        batch = expm(hs, 1.0)
        for h, u in zip(hs, batch):
            np.testing.assert_array_equal(u, expm(h, 1.0))
        assert np.abs(batch[-1] - scipy.linalg.expm(-1j * hs[-1])).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(2000, 10, 10), (5000, 4, 4)], ids=str)
    def test_memory_stays_per_sub_batch(self, shape):
        # Beyond its output, the exponentials of a stack of steps hold only
        # sub-batch temporaries: at most 24 sub-batches of complex entries,
        # whatever the stack height.
        rng = np.random.default_rng(9)
        n, d = shape[0], shape[-1]
        terms = np.stack([random_hermitian(rng, d) for _ in range(4)])
        weights = rng.uniform(0.0, 0.1, size=(n, 4))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            u = taylor(weights, terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= u.nbytes + 24 * EXPM_BATCH_ENTRIES * 16

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    def test_zero_generator_is_identity(self, d):
        u = expm(np.zeros((3, d, d)), 0.5)
        np.testing.assert_array_equal(u, np.broadcast_to(np.eye(d), (3, d, d)))

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 10])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, d, bad):
        h = np.stack([random_hermitian(np.random.default_rng(8), d)] * 3)
        entry = h.copy()
        entry[1, d - 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            expm(entry, 0.1)
        with pytest.raises(ValueError, match="non-finite"):
            expm(h, bad)


class TestTermExponentials:
    """Term-space exponentials against scipy's of the dense generators."""

    @staticmethod
    def real_chunk(layout, scheme, target, d, step):
        """The first chunk's Magnus weights of an X gate, with five couplings, and its d x d stack."""
        h = assemble_hamiltonian(PARAMS, layout, scheme, XGate(T_M, target=target))
        h = dataclasses.replace(h, couplings=tuple(PARAMS.j * np.linspace(0.2, 1.0, 5)))
        (stack,) = (s for s in h.blocks().stacks if s.dim == d)
        edges = step_boundaries(0.0, h.t_end, step, h.breakpoints)
        widths, times = next(gauss_nodes(edges, chunk_steps(5)))
        return model._magnus_weights(h.coefficients(times), widths), stack

    @staticmethod
    def synthetic_chunk(d, scale):
        """Random weights of 50 steps on two couplings for a stack of four
        Hermitian terms on three blocks: 300 matrices, which every size but 3x3
        splits into sub-batches of whole rows, the last one shorter."""
        rng = np.random.default_rng(d)
        terms = np.stack([[random_hermitian(rng, d) for _ in range(3)] for _ in range(4)])
        terms[1, 2] = 0.0  # a term that does not act on a block
        stack = SimpleNamespace(
            dim=d,
            matrices=operators.encode_terms(terms),
            norms=np.abs(terms).sum(axis=-2).max(axis=-1),
            copies=(None,) * 3,
        )
        return scale * rng.normal(size=(50, 2, 4)), stack

    STAR_FM = FrequencyModulation(cycles=8, gamma=2.0, single_site=True)
    #: Real stacks as (layout, scheme, X target, d), and synthetic ones as d.
    SOURCES = [
        pytest.param((PAIR, DD, 1, 4), id="pair-dd-4"),
        pytest.param((STAR, STAR_FM, 2, 6), id="star-fm-6"),
        pytest.param((STAR, STAR_FM, 2, 10), id="star-fm-10"),
        pytest.param((STAR, DD, 2, 10), id="star-dd-10"),
    ]

    def chunks(self, source):
        """(weights, stack) at the default and at a coarse step for a real
        stack, and at small and larger weights for a synthetic one."""
        if isinstance(source, int):
            return [self.synthetic_chunk(source, scale) for scale in (0.003, 0.03)]
        return [self.real_chunk(*source, step) for step in (0.02, 0.5)]

    @pytest.fixture
    def bounds(self, monkeypatch):
        """(bounds, exact 1-norms) of every sub-batch the Taylor body prepares:
        the complex exponents are read back from their real forms."""
        seen = []
        original = operators._expm_taylor

        def recording_taylor(n, d, prepare, group=1):
            def recording(start, stop, x):
                bounds = prepare(start, stop, x)
                exponents = x[:, :d, :d] + 1j * x[:, d:, :d]
                seen.append((bounds.copy(), np.abs(exponents).sum(axis=-2).max(axis=-1)))
                return bounds

            return original(n, d, recording, group)

        monkeypatch.setattr(operators, "_expm_taylor", recording_taylor)
        return seen

    @staticmethod
    def term_exponentials(weights, stack):
        """Every sub-batch of ``_term_exponentials``, read back as one complex
        ``(n, C, B, d, d)`` stack."""
        d = stack.dim
        return np.concatenate([
            steps[..., :d, :d] + 1j * steps[..., d:, :d]
            for steps in operators._term_exponentials(weights, stack.matrices, stack.norms)
        ])

    @pytest.mark.parametrize(
        "source", SOURCES + [pytest.param(d, id=f"synthetic-{d}") for d in (3, 4, 6, 10)]
    )
    def test_matches_dense_generators(self, source, bounds):
        largest = []
        for weights, stack in self.chunks(source):
            bounds.clear()
            u = self.term_exponentials(weights, stack)
            x = exponents(stack, weights)
            assert u.shape == x.shape
            assert np.abs(u - scipy.linalg.expm(x)).max() <= 1e-15
            # The bound of every step is at least its exact 1-norm.
            for bound, exact in bounds:
                assert (bound >= exact).all()
            largest.append(max(bound.max() for bound, _ in bounds))
        # The coarse step, or the larger weights, takes squarings.
        assert largest[1] > THETA_8

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param((STAR, STAR_FM, 2, 10), id="star-fm-10"),
            pytest.param((STAR, STAR_FM, 2, 6), id="star-fm-6"),
            pytest.param((STAR, DD, 2, 10), id="star-dd-10"),
            pytest.param((STAR, DD, 2, 6), id="star-dd-6"),
            pytest.param((PAIR, DD, 1, 4), id="pair-dd-4"),
        ],
    )
    def test_advance_memory_stays_per_sub_batch(self, source):
        # A chunk at the default step with five couplings: ``advance``
        # multiplies each sub-batch out as it arrives, so beyond sub-batch
        # temporaries it needs at most twice the bytes of the chunk's complex
        # steps.  Keeping every step's real form would need more.
        weights, stack = self.real_chunk(*source, DEFAULT_STEP)
        (n, n_couplings), b, d = weights.shape[:2], len(stack.copies), stack.dim
        u = np.broadcast_to(np.eye(d), (b, d, d))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            advance(u, weights, stack.matrices, stack.norms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * n * n_couplings * b * d * d * 16 + 24 * EXPM_BATCH_ENTRIES * 16

    @pytest.mark.parametrize("source", SOURCES + [pytest.param(3, id="synthetic-3")])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_weights(self, source, bad):
        weights, stack = self.chunks(source)[0]
        weights[3, 1, 0] = bad
        u = np.broadcast_to(np.eye(stack.dim), (len(stack.copies), stack.dim, stack.dim))
        with pytest.raises(ValueError, match="non-finite"):
            advance(u, weights, stack.matrices, stack.norms)


class TestPauliProduct:
    """The closed-form kernel of 2x2 stacks against exponentials multiplied one by one."""

    @staticmethod
    def two_level_chunk(n, n_couplings, n_blocks, scale=0.05):
        """Random weights of n steps on ``n_couplings`` couplings, and a stack
        of four random Hermitian terms on ``n_blocks`` two-level blocks."""
        rng = np.random.default_rng(1000 * n + 10 * n_couplings + n_blocks)
        terms = np.stack([[random_hermitian(rng, 2) for _ in range(n_blocks)] for _ in range(4)])
        stack = SimpleNamespace(
            dim=2,
            matrices=(np.einsum("pji,kbij->kbp", PAULIS, terms).real / 2.0).reshape(4, -1),
            norms=np.abs(terms).sum(axis=-2).max(axis=-1),
            copies=(None,) * n_blocks,
        )
        return scale * rng.normal(size=(n, n_couplings, 4)), stack

    @staticmethod
    def extended_product(weights, coefficients):
        """The ordered product of the steps exp(-i (g_0 + g . sigma)), ``(C, B, 2, 2)``,
        one at a time in extended precision, from g = weights @ coefficients."""
        n, n_couplings, k = weights.shape
        g = weights.astype(np.longdouble).reshape(-1, k) @ coefficients.astype(np.longdouble)
        g = g.reshape(n, n_couplings, -1, 4)
        r = np.sqrt((g[..., 1:] ** 2).sum(axis=-1))[..., None, None]
        rotation = np.einsum("ncbp,pij->ncbij", g[..., 1:], PAULIS[1:])
        su2 = np.cos(r) * PAULIS[0] - 1j * np.sin(r) / r * rotation
        steps = np.exp(-1j * g[..., 0])[..., None, None] * su2
        u = PAULIS[0]
        for step in steps:
            u = step @ u
        return u

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 1035])
    @pytest.mark.parametrize("n_couplings, n_blocks", [(1, 1), (1, 3), (5, 1), (5, 3)], ids=str)
    def test_matches_extended_precision_product(self, n, n_couplings, n_blocks):
        weights, stack = self.two_level_chunk(n, n_couplings, n_blocks)
        u = operators._pauli_product(weights, stack.matrices, 2)
        assert u.shape == (n_couplings, n_blocks, 2, 2)
        expect = self.extended_product(weights, stack.matrices)
        assert np.abs(u - expect).max() <= 1e-14
        # The oracle agrees with the dense exponentials of the same steps.
        stepwise = ordered_product(scipy.linalg.expm(exponents(stack, weights)))
        assert np.abs(stepwise - expect).max() <= 1e-13
        assert np.abs(advance(np.eye(2), weights, stack.matrices, stack.norms) - expect).max() <= 1e-14

    def test_phase_sum_keeps_determinant(self):
        # Over 1 rad of phase per step, over 1,500 steps: det U = exp(-2 i sum_n g_0).
        weights, stack = self.two_level_chunk(1500, 1, 3)
        stack.matrices.reshape(4, 3, 4)[0, :, 0] = 1.5
        weights[..., 0] += 1.0
        g0 = (weights.reshape(-1, 4) @ stack.matrices).reshape(1500, 3, 4)[..., 0]
        phases = np.array([math.fsum(g0[:, b]) for b in range(3)])
        assert (g0.mean(axis=0) > 1.0).all()
        u = operators._pauli_product(weights, stack.matrices, 2)[0]
        assert np.abs(np.linalg.det(u) - np.exp(-2j * phases)).max() <= 1e-14


class TestOrderedProduct:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
    def test_matches_sequential(self, n):
        # Plain (n, d, d) stacks, and (n, ..., d, d) ones whose products are
        # independent; complex, and one real stack like the real forms of ``advance``.
        rng = np.random.default_rng(n)
        shapes = [(3,), (1, 1), (3, 1), (1, 2), (3, 2), (1, 3), (3, 3), (4,), (2, 3, 4), (6,), (3, 6)]
        for shape, real in [(shape, False) for shape in shapes] + [((2, 20), True)]:
            *stack, d = shape
            mats = rng.normal(size=(n, *stack, d, d))
            if not real:
                mats = mats + 1j * rng.normal(size=(n, *stack, d, d))
            product = ordered_product(mats)
            assert product.shape == (*stack, d, d)
            assert product.dtype == mats.dtype
            for b in np.ndindex(*stack):
                expect = np.eye(d, dtype=complex)
                for m in mats[(slice(None), *b)]:
                    expect = m @ expect
                assert np.allclose(product[b], expect, atol=1e-12), shape

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            ordered_product(np.eye(3))
        with pytest.raises(ValueError, match="square"):
            ordered_product(np.zeros((4, 2, 3)))

    @pytest.mark.parametrize(
        "shape", [(0, 4, 4), (0, 2, 2), (0, 6, 6), (2, 0, 4, 4)], ids=str
    )
    def test_rejects_empty(self, shape):
        with pytest.raises(ValueError, match=rf"non-empty.*got shape {re.escape(str(shape))}"):
            ordered_product(np.zeros(shape))

    def test_real_form_chain_matches_matmul(self):
        # One chunk of Magnus steps per block, the 4x4 one of a pair DD X
        # gate and the 10x10 and 6x6 ones of a star FM center-X gate: the
        # batched real-form exponentials and product of ``advance`` against
        # per-step scipy exponentials multiplied one by one with matmul.
        star_fm = FrequencyModulation(cycles=4, gamma=1.26, single_site=True)
        for layout, scheme, target, d, steps in [
            (PAIR, DD, 1, 4, 1036), (STAR, star_fm, 2, 10, 1000), (STAR, star_fm, 2, 6, 1000)
        ]:
            h = assemble_hamiltonian(PARAMS, layout, scheme, XGate(T_M, target=target))
            (stack,) = (s for s in h.blocks().stacks if s.dim == d)
            edges = step_boundaries(0.0, h.t_end, 0.02, h.breakpoints)
            widths, times = next(gauss_nodes(edges, CHUNK))
            weights = model._magnus_weights(h.coefficients(times), widths)
            x = exponents(stack, weights)[:, 0, 0]
            assert x.shape == (steps, d, d)
            u = advance(np.eye(d), weights, stack.matrices, stack.norms)[0, 0]
            expect = np.eye(d)
            for step in x:
                expect = scipy.linalg.expm(step) @ expect
            assert np.abs(u - expect).max() <= 1e-14, d
            assert unitarity_defect(u) <= 1e-13, d


class TestPropagate:
    """The dense Magnus steps of ``oracles.propagate``, and the blocks' over a long run."""

    def test_constant_hamiltonian(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(rng, 4)
        u = oracles.propagate(lambda t: np.broadcast_to(h, (t.size, 4, 4)), np.linspace(0.0, 2.0, 51))
        assert np.allclose(u, scipy.linalg.expm(-2j * h), atol=1e-12)

    @pytest.mark.parametrize(
        "h_of_t",
        [
            lambda t: SIGMA_Z,
            lambda t: np.broadcast_to(SIGMA_Z, (t.size + 1, 2, 2)),
            lambda t: np.zeros((t.size, 2, 3)),
        ],
        ids=["unbatched", "wrong-count", "not-square"],
    )
    def test_wrong_shape_callable_rejected(self, h_of_t):
        with pytest.raises(ValueError, match=r"got shape \("):
            oracles.propagate(h_of_t, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize(
        "edges", [[0.0], [0.0, 0.0, 1.0], np.zeros((2, 3))], ids=["one-time", "repeated", "2-d"]
    )
    def test_rejects_bad_boundaries(self, edges):
        with pytest.raises(ValueError, match="step boundaries must be"):
            oracles.propagate(lambda t: np.zeros((t.size, 2, 2)), edges)

    def test_commuting_drive_is_exact_phase(self):
        # H(t) = f(t) sigma_z integrates to the exact area phase at any step.
        u = oracles.propagate(
            lambda t: np.multiply.outer(np.cos(t), SIGMA_Z), np.linspace(0.0, np.pi, 2001)
        )
        area = np.sin(np.pi)
        assert np.allclose(u, scipy.linalg.expm(-1j * area * SIGMA_Z), atol=1e-6)

    def test_non_hermitian_sample_names_time(self):
        # eigh would read one triangle and propagate a different Hamiltonian.
        def h_of_t(t):
            out = np.tile(SIGMA_Z.astype(complex), (t.size, 1, 1))
            out[t > 0.5] += 1e-6j * np.eye(2)
            return out

        with pytest.raises(ValueError, match=r"[Hh]ermit.*t=0\.5"):
            oracles.propagate(h_of_t, np.linspace(0.0, 1.0, 11))

    @pytest.mark.parametrize("case", ["smooth", "pair-dd-x-aligned"])
    def test_step_halving_fourth_order(self, case):
        # The two-point Gauss Magnus error must fall ~16x per halving, on a
        # smooth H and on a kinked drive whose kinks sit on step boundaries.
        if case == "smooth":

            def h_of_t(t):
                return np.multiply.outer(np.sin(3.0 * np.asarray(t)), SIGMA_X) + np.multiply.outer(
                    np.cos(2.0 * np.asarray(t)), SIGMA_Z
                )

            edges, ref = np.linspace(0.0, 2.0, 161), np.linspace(0.0, 2.0, 40961)
        else:
            h_of_t = assemble_hamiltonian(PARAMS, PAIR, DD, XGate(T_M, target=1))
            edges = step_boundaries(0.0, h_of_t.t_end, 0.08, h_of_t.breakpoints)
            ref = refined(edges, 32)
        u_ref = oracles.propagate(h_of_t, ref)
        err = []
        for g in (edges, refined(edges, 2), refined(edges, 4)):
            err.append(np.abs(oracles.propagate(h_of_t, g) - u_ref).max())
        assert err[0] / err[1] == pytest.approx(16.0, rel=0.1)
        assert err[1] / err[2] == pytest.approx(16.0, rel=0.1)

    def test_long_run_stays_unitary(self):
        # 80k steps of eigendecompositions lose about 3e-12 of norm without
        # a re-unitarization per batch (the oracle) or chunk (the blocks).
        h = assemble_hamiltonian(
            PARAMS, PAIR, FrequencyModulation(cycles=8, gamma=2.0), Idle(T_M)
        )
        edges = step_boundaries(0.0, T_M, T_M / 80000, h.breakpoints)
        assert len(edges) - 1 == 80000
        for u in (oracles.propagate(h, edges), h.blocks().propagate(0.0, T_M, T_M / 80000)[0]):
            assert 1.0 - np.linalg.svd(u, compute_uv=False).min() <= 1e-13
