"""The scanned functionals against the propagated infidelities they stand for.

xtalksim has two independent halves: the functionals in ``magnus`` choose
every FM amplitude, and the propagators in ``model`` and ``operators`` give
every reported infidelity.  Neither builds its coupling phase from the other's
code, so a wrong factor on either side shows here.
"""

import numpy as np
import pytest

from xtalksim.experiments import run_single_gate
from xtalksim.model import PAIR, FrequencyModulation, Idle, SystemParams
from xtalksim.optimize import scan_gamma

# J small enough that the second-order term dominates the propagated idle.
PARAMS = SystemParams.from_mhz(50.0, 0.5)
T_M = PARAMS.matched_time()

#: Grid points on each side of the pick over which it must be the argmin.
HALF_WINDOW = 5


@pytest.mark.parametrize("cycles, pick", [(4, 126), (8, 278)])
def test_fm2_idle_pick_is_the_propagated_argmin(cycles, pick):
    # At the matched time fm1 vanishes, so the pair idle infidelity follows
    # (eps_2 T)^2 / 4 and is lowest where fm2-idle is.  At the pick it reads
    # 5.2e-14 (N = 4) and 1.6e-15 (N = 8), 19x and 40x below the lower of
    # its neighbors, and far above the 1e-16 rounding floor.
    scan = scan_gamma("fm2-idle", PARAMS, cycles, T_M)
    assert scan.minimum_index == pick
    window = scan.grid[pick - HALF_WINDOW : pick + HALF_WINDOW + 1]
    infidelities = [
        run_single_gate(PARAMS, PAIR, FrequencyModulation(cycles=cycles, gamma=g), Idle(T_M)) for g in window
    ]
    assert int(np.argmin(infidelities)) == HALF_WINDOW
