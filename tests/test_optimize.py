import tracemalloc

import numpy as np
import pytest

from xtalksim.model import SystemParams, angular_to_cyclic_mhz, cyclic_mhz_to_angular
from xtalksim.optimize import (
    DEFAULT_GRID_MAX_MHZ,
    DEFAULT_GRID_STEP_MHZ,
    GammaScan,
    corner_averaged_fidelity,
    default_gamma_grid,
    first_local_minimum,
    scan_gamma,
)

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
STEP = DEFAULT_GRID_STEP_MHZ
MHZ_GRID = cyclic_mhz_to_angular(1.0) * np.arange(30)


def handmade_scan(values, grid=MHZ_GRID):
    """A scan record of given values, selected as ``scan_gamma`` selects."""
    values = np.asarray(values, dtype=float)
    return GammaScan(grid=grid, values=values, minimum_index=first_local_minimum(values))


class TestFirstLocalMinimum:
    def test_simple_dip(self):
        assert first_local_minimum([3.0, 2.0, 1.0, 2.0]) == 2
        assert first_local_minimum([2.0, 1.0, 2.0]) == 1

    def test_first_of_several(self):
        assert first_local_minimum([3.0, 1.0, 2.0, 0.5, 2.0]) == 1

    def test_plateau_resolves_leftmost(self):
        assert first_local_minimum([3.0, 1.0, 1.0, 1.0, 2.0]) == 1
        v = [3.0, 1.0, 1.0 + 1e-14, 1.0, 2.0]
        assert first_local_minimum(v) == 1

    def test_monotone_curves_have_none(self):
        assert first_local_minimum([1.0, 2.0, 3.0]) is None
        assert first_local_minimum([3.0, 2.0, 1.0]) is None

    def test_still_falling_at_edge_is_none(self):
        assert first_local_minimum([5.0, 4.0, 3.0, 3.0]) is None

    def test_descent_after_rejected_plateau(self):
        # A plateau running into the edge is no minimum, but an earlier dip is.
        assert first_local_minimum([3.0, 3.0, 2.0, 2.0]) is None
        assert first_local_minimum([3.0, 1.5, 2.5, 1.0, 1.0]) == 1


class TestDefaultGrid:
    def test_shape_and_step(self):
        grid = default_gamma_grid()
        assert grid[0] == 0.0
        assert angular_to_cyclic_mhz(grid[1] - grid[0]) == pytest.approx(STEP)
        assert angular_to_cyclic_mhz(grid[-1]) <= DEFAULT_GRID_MAX_MHZ + 1e-9
        assert grid.size == 378

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"max_mhz": np.inf}, "got step 1.59, max inf"),
            ({"max_mhz": np.nan}, "got step 1.59, max nan"),
            ({"step_mhz": np.nan}, "grid step .* got nan"),
            ({"step_mhz": np.inf}, "grid step .* got inf"),
        ],
        ids=["inf-max", "nan-max", "nan-step", "inf-step"],
    )
    def test_rejects_non_finite_bounds(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            default_gamma_grid(**kwargs)

    def test_custom_bounds(self):
        grid = default_gamma_grid(step_mhz=10.0, max_mhz=100.0)
        assert grid.size == 11
        assert angular_to_cyclic_mhz(grid[-1]) == pytest.approx(100.0)


class TestScanGamma:
    @pytest.mark.parametrize(
        "cycles, expect_mhz", [(4, 201.0), (6, 321.0), (8, 442.0)]
    )
    def test_idle_amplitude_table(self, cycles, expect_mhz):
        scan = scan_gamma("fm2-idle", PARAMS, cycles, T_M)
        assert scan.found
        assert abs(scan.gamma_opt_mhz - expect_mhz) <= STEP

    @pytest.mark.parametrize(
        "cycles, expect_mhz", [(4, 244.0), (6, 363.0), (8, 482.0)]
    )
    def test_x_gate_amplitude_table(self, cycles, expect_mhz):
        scan = scan_gamma("fm2-x", PARAMS, cycles, T_M)
        assert scan.found
        assert abs(scan.gamma_opt_mhz - expect_mhz) <= STEP

    @pytest.mark.parametrize(
        "cycles, expect_mhz", [(4, 168.2), (6, 243.8), (8, 322.9)]
    )
    def test_unmatched_first_order_table(self, cycles, expect_mhz):
        scan = scan_gamma("fm1", PARAMS, cycles, 30.0)
        assert scan.found
        assert abs(scan.gamma_opt_mhz - expect_mhz) <= STEP

    def test_refinement_stability(self):
        # Halving the grid step moves the optimum by at most one coarse step.
        coarse = scan_gamma("fm2-idle", PARAMS, 4, T_M)
        fine = scan_gamma(
            "fm2-idle",
            PARAMS,
            4,
            T_M,
            grid=default_gamma_grid(step_mhz=STEP / 2.0),
        )
        assert abs(fine.gamma_opt - coarse.gamma_opt) <= coarse.grid_step + 1e-12

    @pytest.mark.parametrize("functional, t_gate", [("fm1", 30.0), ("fm2-idle", T_M), ("fm2-x", T_M)])
    def test_named_scan_memory_does_not_grow_with_grid(self, functional, t_gate):
        scan_gamma(functional, PARAMS, 8, t_gate)  # imports and one-time setup
        tracemalloc.start()
        try:
            scan_gamma(functional, PARAMS, 8, t_gate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, f"{functional} scan peaked at {peak / 1e6:.2f} MB"

    def test_no_minimum_in_short_range(self):
        scan = scan_gamma(
            "fm2-idle", PARAMS, 4, T_M, grid=default_gamma_grid(max_mhz=100.0)
        )
        assert not scan.found
        assert scan.gamma_opt is None
        assert scan.gamma_opt_mhz is None

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least 3"):
            scan_gamma("fm1", PARAMS, 4, 30.0, grid=np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="uniform"):
            scan_gamma("fm1", PARAMS, 4, 30.0, grid=np.array([0.0, 1.0, 1.5]))
        with pytest.raises(ValueError, match="unknown functional"):
            scan_gamma("nope", PARAMS, 4, T_M)

    @pytest.mark.parametrize("functional", ["fm1", "fm2-idle", "fm2-x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_grid(self, functional, bad):
        grid = cyclic_mhz_to_angular(1.0) * np.array([0.0, 1.0, 2.0, 3.0])
        grid[1] = bad
        with pytest.raises(ValueError, match="grid must be finite"):
            scan_gamma(functional, PARAMS, 4, 30.0, grid=grid)

    def test_rejects_bad_cycle_count(self):
        for functional in ("fm1", "fm2-idle", "fm2-x"):
            for cycles in (0, -4, 2.5):
                with pytest.raises(ValueError, match="cycle count"):
                    scan_gamma(functional, PARAMS, cycles, 30.0)

    @pytest.mark.parametrize("functional", ["fm1", "fm2-idle", "fm2-x"])
    @pytest.mark.parametrize(
        "cycles, gate_time, match",
        [
            (4.0, 20.0, r"cycle count must be a positive integer, got 4\.0$"),
            (4, -20.0, r"gate time must be positive and finite, got -20\.0$"),
            (4, 0.0, r"gate time must be positive and finite, got 0\.0$"),
            (4, np.nan, r"gate time must be positive and finite, got nan$"),
            (4, np.inf, r"gate time must be positive and finite, got inf$"),
        ],
        ids=["float-cycles", "negative-time", "zero-time", "nan-time", "inf-time"],
    )
    def test_window_taken_as_frequency_modulation_takes_it(self, functional, cycles, gate_time, match):
        # A scan's cycle count and gate time are those of the modulation it
        # selects for, so they obey the rules of FrequencyModulation and the gates.
        with pytest.raises(ValueError, match=match):
            scan_gamma(functional, PARAMS, cycles, gate_time)

    def test_numpy_integer_cycles_are_counts(self):
        scan = scan_gamma("fm1", PARAMS, np.int64(4), 30.0)
        assert scan.values.tobytes() == scan_gamma("fm1", PARAMS, 4, 30.0).values.tobytes()


class TestCornerAveraging:
    def quadratic_scan(self):
        return handmade_scan((MHZ_GRID - MHZ_GRID[10]) ** 2 + 0.25)

    def test_averages_the_two_neighbors(self):
        scan = self.quadratic_scan()
        center = scan.gamma_opt
        dg = scan.grid_step
        simulate = lambda g: 1.0 - (g - center) ** 2
        expect = 1.0 - dg**2
        assert corner_averaged_fidelity(simulate, scan) == pytest.approx(expect, rel=1e-12)

    def test_elementwise_on_arrays(self):
        scan = self.quadratic_scan()
        simulate = lambda g: np.array([g, 2.0 * g])
        avg = corner_averaged_fidelity(simulate, scan)
        assert np.allclose(avg, [scan.gamma_opt, 2.0 * scan.gamma_opt])

    def test_rejects_scan_without_minimum(self):
        scan = handmade_scan(-MHZ_GRID)
        with pytest.raises(ValueError):
            corner_averaged_fidelity(lambda g: 1.0, scan)

    def test_zero_lower_corner_is_allowed(self):
        # A minimum right next to zero amplitude averages over {0, 2 dg}.
        scan = handmade_scan(np.concatenate([[0.5, 0.4], np.linspace(0.45, 2.0, 28)]))
        assert scan.minimum_index == 1
        avg = corner_averaged_fidelity(lambda g: g, scan)
        assert avg == pytest.approx(scan.gamma_opt, rel=1e-12)

    def test_rejects_negative_lower_corner(self):
        # Only reachable with a handcrafted record; grid scans never select
        # an edge point.
        scan = GammaScan(grid=MHZ_GRID[:5], values=np.ones(5), minimum_index=0)
        with pytest.raises(ValueError, match="below zero"):
            corner_averaged_fidelity(lambda g: 1.0, scan)
