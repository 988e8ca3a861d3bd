"""The scanned functionals against the propagated infidelities they stand for.

xtalksim has two independent halves: the functionals in ``magnus`` choose
every FM amplitude, and the propagators in ``model`` and ``operators`` give
every reported infidelity.  Neither builds its coupling phase from the other's
code, so a wrong factor on either side shows here.
"""

import numpy as np
import pytest

from xtalksim.experiments import run_single_gate
from xtalksim.magnus import epsilon_fm1
from xtalksim.model import PAIR, FrequencyModulation, Idle, SystemParams
from xtalksim.optimize import scan_gamma

# J small enough that the leading-order term dominates the propagated idle.
PARAMS = SystemParams.from_mhz(50.0, 0.5)
T_M = PARAMS.matched_time()
#: A gate time off matching, where the first-order term does not vanish.
UNMATCHED = 30.0

#: Grid points on each side of the pick over which it must be the argmin.
HALF_WINDOW = 5


def propagated_idle(params, cycles, gammas, t_end):
    """The pair FM idle infidelity at each amplitude, at the default step."""
    return np.array(
        [run_single_gate(params, PAIR, FrequencyModulation(cycles=cycles, gamma=g), Idle(t_end)) for g in gammas]
    )


@pytest.mark.parametrize("cycles, pick", [(4, 126), (8, 278)])
def test_fm2_idle_pick_is_the_propagated_argmin(cycles, pick):
    # At the matched time fm1 vanishes, so the pair idle infidelity follows
    # (eps_2 T)^2 / 4 and is lowest where fm2-idle is.  At the pick it reads
    # 5.2e-14 (N = 4) and 1.6e-15 (N = 8), 19x and 40x below the lower of
    # its neighbors, and far above the 1e-16 rounding floor.
    scan = scan_gamma("fm2-idle", PARAMS, cycles, T_M)
    assert scan.minimum_index == pick
    window = scan.grid[pick - HALF_WINDOW : pick + HALF_WINDOW + 1]
    assert int(np.argmin(propagated_idle(PARAMS, cycles, window, T_M))) == HALF_WINDOW


@pytest.mark.parametrize("cycles", [4, 8])
def test_fm1_predicts_the_unmatched_idle(cycles):
    # Off matching, the first-order flip-flop gives the pair idle infidelity
    # (eps_1 T)^2 / 16 up to O(J^2) relative.  At J/2pi = 0.5 MHz the ratio
    # reads 1 + 1.5e-4 to 1 + 1.9e-3 at grid indices 0, 40, the pick and
    # 300, and the deviation grows 3.995-4.000x at 1 MHz.
    scan = scan_gamma("fm1", PARAMS, cycles, UNMATCHED)
    gammas = scan.grid[[0, 40, scan.minimum_index, 300]]
    deviations = []
    for j_mhz in (0.5, 1.0):
        params = SystemParams.from_mhz(50.0, j_mhz)
        predicted = (epsilon_fm1(params, cycles, gammas, UNMATCHED) * UNMATCHED) ** 2 / 16.0
        deviations.append(propagated_idle(params, cycles, gammas, UNMATCHED) / predicted - 1.0)
    assert np.abs(deviations[0]).max() <= 3e-3
    growth = deviations[1] / deviations[0]
    assert np.all((3.5 <= growth) & (growth <= 4.5))


@pytest.mark.parametrize("cycles, pick", [(4, 106), (6, 153), (8, 203)])
def test_fm1_pick_is_the_propagated_argmin(cycles, pick):
    # Off matching the pair idle infidelity follows (eps_1 T)^2 / 16, so it
    # is lowest where fm1 is.  The pick is below the next-lowest point of
    # the window by 0.30% (N = 4), 0.32% (N = 6) and 2.5% (N = 8).
    scan = scan_gamma("fm1", PARAMS, cycles, UNMATCHED)
    assert scan.minimum_index == pick
    window = scan.grid[pick - HALF_WINDOW : pick + HALF_WINDOW + 1]
    assert int(np.argmin(propagated_idle(PARAMS, cycles, window, UNMATCHED))) == HALF_WINDOW
