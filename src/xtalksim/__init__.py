"""Desk-scale simulation and pulse optimization for XY-crosstalk suppression.

The package models always-on exchange (XY) crosstalk between fixed-frequency
qubits in the operation frame, integrates the exact dynamics of idle and
X-gate operations, and implements two mitigation strategies: sinusoidal
frequency modulation of a spectator qubit and a Z-pulse dynamical-decoupling
train, together with the averaged-Hamiltonian error functionals used to pick
the modulation amplitude.
"""

from xtalksim.operators import step_boundaries
from xtalksim.model import (
    PAIR,
    STAR,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    Idle,
    ParallelXX,
    SystemParams,
    Topology,
    XGate,
    assemble_hamiltonian,
    target_unitary,
)
from xtalksim.optimize import GammaScan, corner_averaged_fidelity, scan_gamma
from xtalksim.experiments import (
    FidelitySeries,
    SchemeRun,
    gate_fidelity,
    run_preset,
    run_sequence,
    run_single_gate,
    sweep_j,
)

__version__ = "0.1.0"
