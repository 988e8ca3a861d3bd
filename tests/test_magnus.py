import math

import numpy as np
import oracles
import pytest
from scipy.special import jv

from xtalksim import magnus
from xtalksim.magnus import (
    PANEL_ORDER,
    PANELS,
    dd_second_order_closed_forms,
    epsilon_dd1,
    epsilon_dd2_numeric,
    epsilon_fm1,
    epsilon_fm2_idle,
    epsilon_fm2_x,
)
from xtalksim.model import FrequencyModulation, SystemParams
from xtalksim.optimize import default_gamma_grid
from xtalksim.pulses import FmZModulation, SineEnvelopeDrive

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
GRID = default_gamma_grid()


def at(functional, cycles, gamma, t_end):
    """A functional's value at one amplitude."""
    return float(functional(PARAMS, cycles, np.array([gamma]), t_end)[0])


def grid_modulations(cycles):
    """One modulation per point of the default amplitude grid, for the oracles."""
    return [FrequencyModulation(cycles=cycles, gamma=g) for g in GRID.tolist()]


def ordered_double_integral(outer, inner, t_end):
    """The production rule's integral of outer(t1) inner(t2) over 0 <= t2 <= t1 <= t_end."""
    rule = magnus.TriangleRule(t_end)
    return rule.integrate(outer(rule.points), inner(rule.points))


class TestOrderedDoubleIntegral:
    def test_separable_constant(self):
        # integral over t2 < t1 of 1 is T^2/2.
        val = ordered_double_integral(lambda t: np.ones_like(t), lambda t: np.ones_like(t), 2.0)
        assert val == pytest.approx(2.0, rel=1e-12)

    def test_polynomial_kernel(self):
        # outer t, inner t^2 over the triangle: T^5 * (1/4 - 1/5) ... worked
        # out directly as integral_0^T t dt integral_0^t s^2 ds = T^5/15.
        val = ordered_double_integral(lambda t: t, lambda t: t**2, 1.5)
        assert val == pytest.approx(1.5**5 / 15.0, rel=1e-12)

    def test_dd_panels_align_to_segments(self):
        # The default panel count is no multiple of these segment counts, so
        # the sign flips fall inside panels unless the count is rounded up.
        # The reference rule has 132 panels, a multiple of both.
        for segments in (6, 12):
            assert PANELS % segments
            tau = T_M / segments
            sign = lambda t: (-1.0) ** np.minimum(np.floor(t / tau), segments - 1)
            g = lambda t: sign(t) * np.exp(1j * PARAMS.delta * t)
            val = oracles.ordered_double_integral(g, lambda t: g(t).conj(), T_M, 132 * 16)
            want = (PARAMS.j**2 / T_M) * abs(val.imag)
            assert epsilon_dd2_numeric(PARAMS, segments, T_M) == pytest.approx(want, rel=1e-9)


class TestTriangleRule:
    def test_running_of_conjugate_is_conjugate(self):
        rule = magnus.TriangleRule(T_M)
        g = np.exp(1j * (PARAMS.delta * rule.points + np.sin(0.7 * rule.points)))
        assert rule.running(g.conj()).tobytes() == rule.running(g).conj().tobytes()


def direct_cross(cycles, gammas, t_end):
    """The drive-coupling cross term of the X functional, each double integral on its own."""
    rule = magnus.TriangleRule(t_end)
    shape = 2.0 * FmZModulation(gamma=1.0, cycles=cycles, duration=t_end).phase(rule.points)
    omega = SineEnvelopeDrive(t_end).sample(rule.points)
    values = []
    for gamma in gammas:
        g = np.exp(1j * (PARAMS.delta * rule.points + gamma * shape))
        cross = rule.integrate(omega, g) - rule.integrate(g, omega)
        values.append((abs(PARAMS.j) / t_end) * abs(cross))
    return np.array(values)


class TestSecondOrderTerms:
    @pytest.mark.parametrize("cycles", [4, 6, 8])
    @pytest.mark.parametrize("t_end", [T_M, 30.0])
    def test_shared_running_integral_matches_direct_terms(self, cycles, t_end):
        # Byte for byte: the X functional is the idle series plus the cross
        # term that the term-by-term form gives, so its scans, and every
        # output that prints them, stay what that form gives.
        gammas = GRID[::11]
        got = epsilon_fm2_x(PARAMS, cycles, gammas, t_end)
        want = epsilon_fm2_idle(PARAMS, cycles, gammas, t_end) + direct_cross(cycles, gammas, t_end)
        assert got.tobytes() == want.tobytes()


class TestFirstOrder:
    def test_fm1_vanishes_at_matched_time(self):
        assert at(epsilon_fm1, 4, 0.0, T_M) <= 1e-12 * PARAMS.j

    def test_fm1_half_period_value(self):
        # Over half a detuning period the phase integral is 2/Delta, so the
        # residual is exactly 4J/pi = 0.04 rad/ns at these parameters.
        val = at(epsilon_fm1, 4, 0.0, PARAMS.t_delta)
        assert val == pytest.approx(4.0 * PARAMS.j / math.pi, rel=1e-9)
        assert val == pytest.approx(0.04, rel=1e-9)

    @pytest.mark.parametrize("segments", [4, 6, 8])
    def test_dd1_vanishes_at_matched_time(self, segments):
        assert epsilon_dd1(PARAMS, segments, T_M) <= 1e-14 * PARAMS.j

    def test_dd1_nonzero_off_matching(self):
        assert epsilon_dd1(PARAMS, 4, 30.0) > 1e-3 * PARAMS.j
        # Segments spanning half a detuning period flip in step with the
        # coupling sign, so the train resonates instead of cancelling.
        assert epsilon_dd1(PARAMS, 4, 2 * T_M) > 1.0 * PARAMS.j

    def test_dd1_rejects_bad_segments(self):
        with pytest.raises(ValueError):
            epsilon_dd1(PARAMS, 0, T_M)

    @pytest.mark.parametrize("functional", [epsilon_dd1, epsilon_dd2_numeric])
    @pytest.mark.parametrize("segments", [4.5, 4.0, True], ids=["fraction", "integral-float", "bool"])
    def test_dd_segment_count_is_a_count(self, functional, segments):
        with pytest.raises(ValueError, match=rf"segment count must be a positive integer, got {segments!r}$"):
            functional(PARAMS, segments, T_M)


class TestSecondOrderClosedForms:
    def test_idle_kernel_matches_closed_form(self):
        # Unmodulated second-order idle error in closed form: 2 |J^2/(2 Delta)|.
        expect = 2.0 * abs(PARAMS.j**2 / (2.0 * PARAMS.delta))
        val = at(epsilon_fm2_idle, 4, 0.0, T_M)
        assert val == pytest.approx(expect, rel=1e-6)
        assert val == pytest.approx(3.141592653590e-03, rel=1e-9)

    def test_decoupled_kernel_matches_closed_form(self):
        expect = 2.0 * abs((math.pi - 4.0) / (2.0 * math.pi) * PARAMS.j**2 / PARAMS.delta)
        val = epsilon_dd2_numeric(PARAMS, 4, T_M)
        assert val == pytest.approx(expect, rel=1e-6)
        assert val == pytest.approx(8.584073464102e-04, rel=1e-9)

    def test_second_order_suppression_ratio(self):
        forms = dd_second_order_closed_forms(PARAMS)
        assert forms.ratio == pytest.approx(abs((math.pi - 4.0) / math.pi), rel=1e-12)
        measured = epsilon_dd2_numeric(PARAMS, 4, T_M) / at(epsilon_fm2_idle, 4, 0.0, T_M)
        assert measured == pytest.approx(abs((math.pi - 4.0) / math.pi), rel=1e-6)


class TestQuadratureConvergence:
    """fm2-x's 512-node rule, and the fm2-idle series, against the 1,024- and
    2,048-node reference rules."""

    def test_node_doubling_is_stable(self):
        fm = FrequencyModulation(cycles=8, gamma=2.777)
        coarse = oracles.fm2_idle(PARAMS, fm, T_M, nodes_per_axis=1024)
        fine = oracles.fm2_idle(PARAMS, fm, T_M)
        assert coarse == pytest.approx(fine, rel=1e-9)
        assert at(epsilon_fm2_idle, 8, 2.777, T_M) == pytest.approx(fine, rel=1e-9)

    def test_x_functional_doubling_is_stable(self):
        fm = FrequencyModulation(cycles=4, gamma=1.5)
        coarse = oracles.fm2_x(PARAMS, fm, T_M, nodes_per_axis=1024)
        fine = oracles.fm2_x(PARAMS, fm, T_M)
        assert coarse == pytest.approx(fine, rel=1e-9)
        assert at(epsilon_fm2_x, 4, 1.5, T_M) == pytest.approx(fine, rel=1e-9)

    @pytest.mark.parametrize("cycles", [4, 6, 8])
    @pytest.mark.parametrize("functional", [epsilon_fm2_idle, epsilon_fm2_x])
    def test_default_rule_matches_doubled_over_grid(self, functional, cycles):
        assert PANELS * PANEL_ORDER == 512
        oracle = {epsilon_fm2_idle: oracles.fm2_idle, epsilon_fm2_x: oracles.fm2_x}[functional]
        doubled = [oracle(PARAMS, fm, T_M, 1024) for fm in grid_modulations(cycles)]
        values = functional(PARAMS, cycles, GRID, T_M)
        np.testing.assert_allclose(values, doubled, rtol=1e-12, atol=0.0)


class TestAgainstOracles:
    """Whole default grid against adaptive quadrature and the 2,048-node rule."""

    @pytest.mark.parametrize("cycles", [4, 6, 8])
    def test_fm1_unmatched(self, cycles):
        want = [oracles.fm1(PARAMS, fm, 30.0) for fm in grid_modulations(cycles)]
        values = epsilon_fm1(PARAMS, cycles, GRID, 30.0)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cycles", [4, 6, 8])
    def test_fm1_matched(self, cycles):
        want = np.array([oracles.fm1(PARAMS, fm, T_M) for fm in grid_modulations(cycles)])
        assert np.abs(epsilon_fm1(PARAMS, cycles, GRID, T_M) - want).max() <= 1e-12 * PARAMS.j

    @pytest.mark.parametrize("cycles", [4, 6, 8])
    @pytest.mark.parametrize(
        "functional, oracle",
        [(epsilon_fm2_idle, oracles.fm2_idle), (epsilon_fm2_x, oracles.fm2_x)],
    )
    def test_second_order_matched(self, functional, oracle, cycles):
        want = [oracle(PARAMS, fm, T_M) for fm in grid_modulations(cycles)]
        values = functional(PARAMS, cycles, GRID, T_M)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize(
        "cycles, t_end",
        [(4, 30.0), (6, 30.0), (8, 30.0), (4, 25.0), (4, 80.0)],
        ids=["unmatched-N4", "unmatched-N6", "unmatched-N8", "quarter-turn", "resonant"],
    )
    def test_fm2_idle_series_branches(self, cycles, t_end):
        # Delta T / 2 pi is 1.5 at 30 ns, so every x_n = k + n N + f is a
        # half-integer; it is 1.25 at 25 ns, where the sin(Delta T) |B|^2 term
        # is largest; and it is 4 at 80 ns, where N = 4 makes x_{-1} = 0.
        # 8,192 nodes per axis: the oracle moves by at most 3e-13 from there
        # to 16,384 on these grids.
        grid = GRID[::11]
        want = [oracles.fm2_idle(PARAMS, FrequencyModulation(cycles=cycles, gamma=g), t_end, 8192) for g in grid]
        values = epsilon_fm2_idle(PARAMS, cycles, grid, t_end)
        np.testing.assert_allclose(values, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize(
        "delta_mhz, cycles, t_end",
        [(20.0, 1, 50.0), (50.0, 2, 40.00001)],
        ids=["rounding", "offset-5e-7"],
    )
    def test_fm2_idle_near_resonance(self, delta_mhz, cycles, t_end):
        # Delta T / 2 pi - k reads 2.2e-16 and 5e-7: the resonant order's
        # x_n = f is tiny but not 0, and sums that kept it would cancel two
        # terms in 1/f.  The oracle's own rounding at the dips reaches 2e-12
        # here (16,384 against 32,768 nodes), hence the looser bound.
        params = SystemParams.from_mhz(delta_mhz, 5.0)
        grid = GRID[::11]
        want = [oracles.fm2_idle(params, FrequencyModulation(cycles=cycles, gamma=g), t_end, 8192) for g in grid]
        values = epsilon_fm2_idle(params, cycles, grid, t_end)
        np.testing.assert_allclose(values, want, rtol=1e-11, atol=0.0)


class TestFirstOrderSeries:
    @pytest.mark.parametrize("cycles, t_end", [(1, 20.0), (2, 40.0)])
    @pytest.mark.parametrize("gamma, expect", [(0.3, 0.036499), (1.7, 0.0091991)])
    def test_resonant_order(self, cycles, t_end, gamma, expect):
        # Delta + n w = 0 at n = -1: that order integrates to T instead of 0/0.
        fm = FrequencyModulation(cycles=cycles, gamma=gamma)
        got = at(epsilon_fm1, cycles, gamma, t_end)
        assert got == pytest.approx(oracles.fm1(PARAMS, fm, t_end), rel=1e-12)
        assert got == pytest.approx(expect, rel=1e-4)

    @pytest.mark.parametrize("cycles, t_end", [(4, 30.0), (8, 30.0), (4, T_M), (1, 97.0)])
    def test_truncation_converged(self, monkeypatch, cycles, t_end):
        kept = epsilon_fm1(PARAMS, cycles, GRID, t_end)
        limit = magnus._bessel_order_limit
        monkeypatch.setattr(magnus, "_bessel_order_limit", lambda c: limit(c) + 20)
        more = epsilon_fm1(PARAMS, cycles, GRID, t_end)
        assert np.all(np.abs(more - kept) <= 1e-15 * np.abs(more))


def grid_amplitudes(t_end):
    """c = gamma T / (pi N) over the default grid, for N = 1..8."""
    return np.concatenate([GRID * t_end / (math.pi * n) for n in range(1, 9)])


class TestBesselTable:
    """Miller's recurrence against scipy's J_n, at every order the series keep."""

    def test_zero_and_tiny_amplitudes(self):
        # c = 0 is the identity.  At c = 1e-12 the recurrence rescales on its
        # way down; J_1 is 8.9e-16 relative off there, 4.0e-28 absolute, and
        # every later order is below 1e-24.  At c = 1e-200 a recurrence from
        # order 46 would overflow within four steps.
        c = np.array([0.0, 1e-12, 1e-200])
        table = magnus._bessel_table(c, 30)
        assert np.array_equal(table[:, 0], np.eye(31)[0])
        assert np.all(table[0] == 1.0)
        assert np.abs(table - jv(np.arange(31)[:, None], c)).max() <= 1e-27

    @pytest.mark.parametrize(
        "c, bound",
        [
            (grid_amplitudes(T_M), 1e-15),
            (grid_amplitudes(30.0), 2e-15),
            (grid_amplitudes(100.0), 1e-14),
            (np.array([150.0]), 1e-14),
        ],
        ids=["grid-T_M", "grid-30ns", "grid-100ns", "c150"],
    )
    def test_matches_scipy(self, c, bound):
        # Largest differences: 3.3e-16 at c <= 20, 6.9e-16 (c <= 24, T_M),
        # 9.6e-16 (c <= 36, 30 ns), 6.2e-15 (c <= 120, 100 ns) and 4.8e-15 at
        # c = 150.  Past c = 100 scipy is the side that is off: at c = 120 and
        # 150 it reads 5.0e-15 and 4.4e-15 from 40-digit values, the table
        # 1.1e-16 and 5.8e-16.
        own = magnus._bessel_order_limit(c)
        orders = np.arange(int(own.max()) + 1)[:, None]
        error = np.abs(magnus._bessel_table(c, int(own.max())) - jv(orders, c))
        assert np.where(orders <= own, error, 0.0).max() <= bound

    @pytest.mark.parametrize("c", [0.0, 1e-12, 0.7, 23.4, 150.0])
    def test_negative_orders(self, c):
        # (-i)^n J_n(c) at n = -L..L, the negative orders by J_{-n} = (-1)^n J_n.
        coefficients = dict(magnus._jacobi_anger(np.array([c])))
        top = max(coefficients)
        assert sorted(coefficients) == list(range(-top, top + 1))
        for n in range(1, top + 1):
            assert np.array_equal(coefficients[-n], coefficients[n])
            want = (-1j) ** -n * jv(-n, c)
            assert abs(coefficients[-n][0] - want) <= 1e-14

    def test_grid_is_its_single_calls(self):
        # Each amplitude starts its recurrence at its own order and rescales
        # alone, so no column depends on the others or on the table's depth.
        c = np.concatenate([[0.0, 1e-12], grid_amplitudes(100.0)[::29], [150.0]])
        top = int(magnus._bessel_order_limit(c).max())
        table = magnus._bessel_table(c, top)
        for i, one in enumerate(c):
            assert np.array_equal(table[:, i], magnus._bessel_table(np.array([one]), top)[:, 0])
            own = int(magnus._bessel_order_limit(one))
            assert np.array_equal(table[: own + 1, i], magnus._bessel_table(np.array([one]), own)[:, 0])


class TestGridForms:
    @pytest.mark.parametrize(
        "functional, t_end",
        [
            (epsilon_fm1, 30.0),
            (epsilon_fm2_idle, T_M),
            (epsilon_fm2_x, T_M),
        ],
    )
    def test_sequence_matches_single_calls(self, functional, t_end):
        gammas = GRID[::37]
        values = functional(PARAMS, 4, gammas, t_end)
        singles = [at(functional, 4, g, t_end) for g in gammas]
        np.testing.assert_allclose(values, singles, rtol=1e-15, atol=0.0)


class TestCompositeFunctionals:
    def test_x_functional_dominates_idle(self):
        assert at(epsilon_fm2_x, 4, 1.26, T_M) >= at(epsilon_fm2_idle, 4, 1.26, T_M)
