"""Gate-level simulations: fidelities, repeated-gate series, sweeps, presets.

Everything here reduces to assembling a time-dependent Hamiltonian,
propagating it exactly, block by block (``AssembledHamiltonian.blocks``),
and comparing the result against the ideal gate with a trace-overlap
fidelity.  Repeated gates at a matched duration reuse the
single-period propagator, so a 20-gate series costs at most two
propagations.  The preset registry at the bottom packages the shipped
experiments as flat (series, scheme, abscissa, value) rows for the CLI.

Units follow the rest of the package: times in ns, frequencies and
amplitudes in rad/ns internally, with cyclic MHz at the boundaries (J grids,
waveform samples, scan abscissae).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from xtalksim.model import (
    PAIR,
    STAR,
    AssembledHamiltonian,
    ControlScheme,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    GateSpec,
    Idle,
    ParallelXX,
    SystemParams,
    Topology,
    XGate,
    angular_to_cyclic_mhz,
    assemble_hamiltonian,
    cyclic_mhz_to_angular,
    static_frame_reference,
    target_unitary,
)
from xtalksim.operators import TimeGrid
from xtalksim.optimize import GammaScan, corner_averaged_fidelity, scan_gamma

# Longest integrator step (ns) used by every shipped experiment.  Grids put
# a step boundary on every waveform kink, so the fourth-order Magnus steps
# resolve even the ~1e-11 modulated idle dips to well within 1e-3 relative.
DEFAULT_STEP = 0.02

# J grid (cyclic MHz) for coupling-strength sweeps.
DEFAULT_J_GRID_MHZ = tuple(float(j) for j in range(1, 11))

# System of every preset (Delta/2pi = 50 MHz, J/2pi = 5 MHz) and its matched
# gate time; fig16 alone runs an unmatched 30 ns gate.
PRESET_PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PRESET_PARAMS.matched_time()

# Gate factories for the presets: gate time in ns -> X gate on qubit 1 or 2.
_X1 = partial(XGate, target=1)
_X2 = partial(XGate, target=2)

# Modulation cycle counts that every FM preset compares.
FM_CYCLES = (4, 6, 8)

# Samples per control channel in a preset's waveform rows.
WAVEFORM_POINTS = 801


@dataclass(frozen=True)
class FidelitySeries:
    """One scheme's infidelity over an abscissa (time in ns or J in MHz)."""

    scheme: str
    abscissa: np.ndarray
    infidelities: np.ndarray
    counts: Optional[np.ndarray] = None

    def __post_init__(self):
        values = np.asarray(self.infidelities, dtype=float)
        if np.asarray(self.abscissa).shape != values.shape:
            raise ValueError(
                f"series {self.scheme!r} has {np.asarray(self.abscissa).size} abscissa "
                f"points but {values.size} values"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite infidelity in series {self.scheme!r}")
        if values.size and (values.min() < -1e-9 or values.max() > 1.0 + 1e-9):
            raise ValueError(
                f"infidelity out of [0, 1] in series {self.scheme!r}: "
                f"range [{values.min()}, {values.max()}]"
            )
        # Exactly suppressed cases land within roundoff below zero.
        object.__setattr__(self, "infidelities", np.maximum(values, 0.0))


def gate_fidelity(u_gate: np.ndarray, u_ideal: np.ndarray) -> float:
    """Trace-overlap fidelity |Tr(U† V)| / |Tr(V† V)|.

    Insensitive to a global phase on either argument.  The denominator is
    the dimension whenever the ideal gate is unitary.
    """
    u_gate = np.asarray(u_gate)
    u_ideal = np.asarray(u_ideal)
    if u_gate.shape != u_ideal.shape:
        raise ValueError(f"dimension mismatch: {u_gate.shape} vs {u_ideal.shape}")
    denom = abs(np.trace(u_ideal.conj().T @ u_ideal))
    return float(abs(np.trace(u_gate.conj().T @ u_ideal)) / denom)


def scheme_label(scheme: ControlScheme) -> str:
    if isinstance(scheme, CrosstalkOnly):
        return "CD"
    if isinstance(scheme, FrequencyModulation):
        return f"FM-N{scheme.cycles}"
    if isinstance(scheme, DynamicalDecoupling):
        return f"DD-Z{scheme.segments}" if scheme.pulses else "CD"
    raise TypeError(f"unsupported scheme {scheme!r}")


def run_single_gate(
    params: SystemParams,
    topology: Topology,
    scheme: ControlScheme,
    gate: GateSpec,
    *,
    step: float = DEFAULT_STEP,
) -> float:
    """Infidelity of one gate under the given control scheme: a one-gate sequence."""
    return float(run_sequence(params, topology, scheme, gate, 1, step=step).infidelities[0])


def _sequence_counts(gate: GateSpec, repetitions: int) -> np.ndarray:
    """Gate counts at which a sequence is scored.

    Idle sequences report every count; driven gates report odd counts only,
    so the accumulated operation is the same net gate throughout.
    """
    if repetitions < 1:
        raise ValueError(f"sequence length must be >= 1, got {repetitions}")
    if isinstance(gate, Idle):
        return np.arange(1, repetitions + 1)
    if repetitions % 2 == 0:
        raise ValueError(
            f"driven-gate sequences need an odd length, got {repetitions}"
        )
    return np.arange(1, repetitions + 1, 2)


def run_sequence(
    params: SystemParams,
    topology: Topology,
    scheme: ControlScheme,
    gate: GateSpec,
    repetitions: int,
    *,
    step: float = DEFAULT_STEP,
) -> FidelitySeries:
    """Infidelity of k consecutive gates versus the k-fold target.

    Scored after each whole gate, at k T plus any trailing half pulse
    (decoupling runs extend half a pulse width so the last pulse completes).
    At a matched duration the assembled Hamiltonian is periodic, so the run
    needs only the steady-window propagator and, with a tail, the head before
    it; otherwise each gate window is propagated separately and composed.
    """
    counts = _sequence_counts(gate, repetitions)
    h = assemble_hamiltonian(params, topology, scheme, gate, repetitions=repetitions)
    return FidelitySeries(
        scheme=scheme_label(scheme),
        abscissa=counts * h.gate_time + h.tail,
        infidelities=_infidelities(h, gate, step)[0],
        counts=counts,
    )


def _infidelities(h: AssembledHamiltonian, gate: GateSpec, step: float) -> np.ndarray:
    """Infidelity after each scored gate count of ``h``, one row per coupling
    of its stack: shape ``(C, counts)``."""
    wanted = set(_sequence_counts(gate, h.repetitions).tolist())
    columns = []
    u = None
    for k, u_window in enumerate(_windowed_propagators(h, step), start=1):
        u = u_window if u is None else u_window @ u
        if k in wanted:
            ideal = target_unitary(gate, h.topology, repetitions=k)
            columns.append([1.0 - gate_fidelity(v, ideal) for v in u])
    return np.array(columns).T


def _windowed_propagators(h: AssembledHamiltonian, step: float):
    """Per-gate propagators U(kT+tail <- (k-1)T+tail), first window from 0.

    Periodic runs reuse the steady window for k >= 2; with a tail, the first
    window is the steady one after the head [0, tail].
    """
    t_gate, tail = h.gate_time, h.tail
    blocks = h.blocks()

    def window(t_start: float, t_end: float) -> np.ndarray:
        return blocks.propagate(TimeGrid.with_max_step(t_start, t_end, step, h.breakpoints))

    if h.periodic and h.repetitions > 1:
        u_period = window(tail, t_gate + tail)
        yield u_period if tail == 0.0 else u_period @ window(0.0, tail)
        for _ in range(2, h.repetitions + 1):
            yield u_period
        return
    yield window(0.0, t_gate + tail)
    for k in range(2, h.repetitions + 1):
        yield window((k - 1) * t_gate + tail, k * t_gate + tail)


def cd_idle_reference_infidelity(params: SystemParams, topology: Topology, t: float) -> float:
    """Closed-form idle infidelity from static diagonalization (no integrator)."""
    u = static_frame_reference(params, topology, t)
    return max(0.0, 1.0 - gate_fidelity(u, np.eye(topology.dim)))


# ---------------------------------------------------------------------------
# Scheme bundles for sweeps


@dataclass(frozen=True)
class SchemeRun:
    """A scheme plus how to score it.

    When ``corner_scan`` is set the fidelity is averaged over the two grid
    points flanking the scan optimum (idle-gate modulation reporting);
    otherwise the scheme is simulated as given.
    """

    scheme: ControlScheme
    corner_scan: Optional[GammaScan] = None

    @property
    def label(self) -> str:
        return scheme_label(self.scheme)


def score_run(
    params: SystemParams,
    topology: Topology,
    run: SchemeRun,
    gate: GateSpec,
    repetitions: int,
    *,
    step: float = DEFAULT_STEP,
) -> FidelitySeries:
    """Infidelity of k consecutive gates under ``run``, corner-averaged if it has a scan."""
    if run.corner_scan is None:
        return run_sequence(params, topology, run.scheme, gate, repetitions, step=step)
    counts = _sequence_counts(gate, repetitions)
    infidelities = _run_infidelities(params, topology, run, gate, repetitions, step, (params.j,))
    return FidelitySeries(run.label, counts * gate.duration, infidelities[0], counts)


def _run_infidelities(
    params: SystemParams, topology: Topology, run: SchemeRun, gate: GateSpec,
    repetitions: int, step: float, couplings: Tuple[float, ...],
) -> np.ndarray:
    """``_infidelities`` of ``run`` at each coupling (rad/ns) of ``couplings``,
    corner-averaged if the run has a scan."""

    def infidelities(scheme: ControlScheme) -> np.ndarray:
        h = assemble_hamiltonian(params, topology, scheme, gate, repetitions=repetitions)
        return _infidelities(dataclasses.replace(h, couplings=couplings), gate, step)

    if run.corner_scan is None:
        return infidelities(run.scheme)

    def fidelities(gamma: float) -> np.ndarray:
        return 1.0 - infidelities(dataclasses.replace(run.scheme, gamma=gamma))

    return 1.0 - corner_averaged_fidelity(fidelities, run.corner_scan)


def sweep_j(
    params: SystemParams,
    topology: Topology,
    runs: Sequence[SchemeRun],
    gate: GateSpec,
    j_values_mhz: Optional[Sequence[float]] = None,
    *,
    step: float = DEFAULT_STEP,
) -> List[FidelitySeries]:
    """One single-gate infidelity series per run over a coupling-strength grid.

    Each run scores the whole grid as one coupling stack (``model``
    docstring), corner-averaged as by ``score_run`` if it has a scan.  The
    series follow the order of ``runs`` and their abscissa is the grid in
    cyclic MHz, in the order given.
    """
    j_grid = DEFAULT_J_GRID_MHZ if j_values_mhz is None else tuple(j_values_mhz)
    if len(j_grid) == 0:
        raise ValueError("empty J grid")
    if any(j <= 0 for j in j_grid):
        raise ValueError(f"coupling strengths must be positive, got {j_grid}")
    couplings = tuple(cyclic_mhz_to_angular(j) for j in j_grid)
    return [
        FidelitySeries(
            scheme=run.label,
            abscissa=np.asarray(j_grid, dtype=float),
            infidelities=_run_infidelities(params, topology, run, gate, 1, step, couplings)[:, 0],
        )
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Amplitude-scan cache (the scans are pure functions of their key)

_SCAN_CACHE: Dict[tuple, GammaScan] = {}


def cached_scan(
    functional: str, params: SystemParams, cycles: int, gate_time: float
) -> GammaScan:
    key = (
        functional,
        int(cycles),
        round(float(gate_time), 9),
        round(params.delta, 12),
        round(params.j, 12),
    )
    if key not in _SCAN_CACHE:
        _SCAN_CACHE[key] = scan_gamma(functional, params, cycles, gate_time)
    return _SCAN_CACHE[key]


# ---------------------------------------------------------------------------
# Preset experiments

Row = Tuple[str, str, float, float]


def _series_rows(series_name: str, series: Iterable[FidelitySeries]) -> List[Row]:
    rows: List[Row] = []
    for s in series:
        rows.extend(
            (series_name, s.scheme, float(a), float(v))
            for a, v in zip(s.abscissa, s.infidelities)
        )
    return rows


def _waveform_rows(h: AssembledHamiltonian) -> List[Row]:
    """Sample the named control channels of ``h`` over [0, t_end], in cyclic MHz."""
    t = np.linspace(0.0, h.t_end, WAVEFORM_POINTS)
    rows: List[Row] = []
    for name, channel in h.controls().items():
        values = angular_to_cyclic_mhz(np.asarray(channel(t), dtype=float))
        rows.extend(("waveform", name, float(a), float(v)) for a, v in zip(t, values))
    return rows


def _scan_rows(label: str, scan: GammaScan) -> List[Row]:
    """The scan as ``scan`` rows in cyclic MHz, then the selected point, if any."""
    rows = [
        ("scan", label, angular_to_cyclic_mhz(float(g)), angular_to_cyclic_mhz(float(v)))
        for g, v in zip(scan.grid, scan.values)
    ]
    if scan.found:
        rows.append(
            (
                "gamma_opt",
                label,
                scan.gamma_opt_mhz,
                angular_to_cyclic_mhz(float(scan.values[scan.minimum_index])),
            )
        )
    return rows


def _fm_runs(
    params: SystemParams,
    gate_time: float,
    functional: str,
    *,
    corner: bool = False,
    single_site: bool = False,
) -> List[SchemeRun]:
    runs = [SchemeRun(CrosstalkOnly())]
    for n in FM_CYCLES:
        scan = cached_scan(functional, params, n, gate_time)
        if not scan.found:
            raise ValueError(f"no amplitude minimum in range for N={n}")
        runs.append(
            SchemeRun(
                FrequencyModulation(cycles=n, gamma=scan.gamma_opt, single_site=single_site),
                corner_scan=scan if corner else None,
            )
        )
    return runs


def _sequence_rows(
    params: SystemParams,
    topology: Topology,
    runs: Sequence[SchemeRun],
    gate: GateSpec,
    repetitions: int,
    step: float,
) -> List[Row]:
    """One ``repetitions``-gate series per run, as ``vs_time`` rows."""
    series = [score_run(params, topology, run, gate, repetitions, step=step) for run in runs]
    return _series_rows("vs_time", series)


def _preset_fig2(step: float) -> List[Row]:
    rows: List[Row] = []
    for t in np.arange(2.0, 60.0 + 0.25, 0.5):
        value = run_single_gate(PRESET_PARAMS, PAIR, CrosstalkOnly(), Idle(float(t)), step=step)
        rows.append(("vs_gate_time", "CD", float(t), value))
    return rows


def _preset_fig3b(step: float) -> List[Row]:
    runs = _fm_runs(PRESET_PARAMS, T_M, "fm2-idle", corner=True)
    series = sweep_j(PRESET_PARAMS, PAIR, runs, Idle(T_M), step=step)
    return _series_rows("vs_J", series)


def _preset_fig3c(step: float) -> List[Row]:
    runs = _fm_runs(PRESET_PARAMS, T_M, "fm2-idle", corner=True)
    return _sequence_rows(PRESET_PARAMS, PAIR, runs, Idle(T_M), 20, step)


def _preset_fig4a(step: float) -> List[Row]:
    scan = cached_scan("fm2-x", PRESET_PARAMS, 4, T_M)
    scheme = FrequencyModulation(cycles=4, gamma=scan.gamma_opt)
    h = assemble_hamiltonian(PRESET_PARAMS, PAIR, scheme, _X1(T_M), fm_frame="operation")
    return _waveform_rows(h)


def _preset_fig4b(step: float) -> List[Row]:
    runs = _fm_runs(PRESET_PARAMS, T_M, "fm2-x")
    series = sweep_j(PRESET_PARAMS, PAIR, runs, _X1(T_M), step=step)
    return _series_rows("vs_J", series)


def _preset_fig4c(step: float) -> List[Row]:
    runs = _fm_runs(PRESET_PARAMS, T_M, "fm2-x")
    return _sequence_rows(PRESET_PARAMS, PAIR, runs, _X1(T_M), 21, step)


def _dd_preset(
    topology: Topology,
    gate_factory: Callable[[float], GateSpec],
    repetitions: int,
    step: float,
) -> List[Row]:
    decoupling = DynamicalDecoupling(segments=4, width=T_M / 16.0)
    gate = gate_factory(T_M)
    runs = [SchemeRun(dataclasses.replace(decoupling, pulses=False)), SchemeRun(decoupling)]
    rows = _waveform_rows(assemble_hamiltonian(PRESET_PARAMS, topology, decoupling, gate))
    rows += _series_rows("vs_J", sweep_j(PRESET_PARAMS, topology, runs, gate, step=step))
    rows += _sequence_rows(PRESET_PARAMS, topology, runs, gate, repetitions, step)
    return rows


def _fm_preset(
    topology: Topology,
    gate_factory: Callable[[float], GateSpec],
    functional: str,
    repetitions: int,
    step: float,
    *,
    corner: bool = False,
    single_site: bool = False,
) -> List[Row]:
    gate = gate_factory(T_M)
    runs = _fm_runs(PRESET_PARAMS, T_M, functional, corner=corner, single_site=single_site)
    # The waveform rows show the N = 4 run; runs[0] is the unmitigated reference.
    rows = _waveform_rows(
        assemble_hamiltonian(PRESET_PARAMS, topology, runs[1].scheme, gate, fm_frame="operation")
    )
    rows += _series_rows("vs_J", sweep_j(PRESET_PARAMS, topology, runs, gate, step=step))
    rows += _sequence_rows(PRESET_PARAMS, topology, runs, gate, repetitions, step)
    return rows


def _scan_table(functional: str, params: SystemParams, gate_time: float) -> List[Row]:
    rows: List[Row] = []
    for n in FM_CYCLES:
        rows += _scan_rows(f"FM-N{n}", cached_scan(functional, params, n, gate_time))
    return rows


def _scan_preset(functional: str, step: float) -> List[Row]:
    return _scan_table(functional, PRESET_PARAMS, T_M)


def _preset_fig16(step: float) -> List[Row]:
    # Unmatched, so first-order averaging fails on its own: the amplitude
    # minimizes the first-order residual instead.
    t_gate = 3.0 * PRESET_PARAMS.t_delta
    gate = _X1(t_gate)
    runs = _fm_runs(PRESET_PARAMS, t_gate, "fm1")
    rows = _scan_table("fm1", PRESET_PARAMS, t_gate)
    rows += _series_rows("vs_J", sweep_j(PRESET_PARAMS, PAIR, runs, gate, step=step))
    rows += _sequence_rows(PRESET_PARAMS, PAIR, runs, gate, 15, step)
    return rows


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    build: Callable[[float], List[Row]]


PRESETS: Dict[str, Preset] = {
    p.name: p
    for p in [
        Preset("fig2", "bare-crosstalk idle infidelity vs gate time, 2-60 ns", _preset_fig2),
        Preset("fig3b", "idle infidelity vs J: bare crosstalk and modulation N=4/6/8", _preset_fig3b),
        Preset("fig3c", "20 consecutive idle gates at J/2pi = 5 MHz", _preset_fig3c),
        Preset("fig4a", "X-gate drive and modulation waveforms, N=4", _preset_fig4a),
        Preset("fig4b", "X-gate infidelity vs J under modulation", _preset_fig4b),
        Preset("fig4c", "21 consecutive X gates under modulation", _preset_fig4c),
        Preset("fig5", "idle gate under a 4-pulse decoupling train: waveform, J sweep, 20-gate run", partial(_dd_preset, PAIR, Idle, 20)),
        Preset("fig6", "X gate inside a 4-pulse decoupling train: waveform, J sweep, 21-gate run", partial(_dd_preset, PAIR, _X1, 21)),
        Preset("fig8", "five-qubit idle under modulation: waveform, J sweep, 20-gate run", partial(_fm_preset, STAR, Idle, "fm2-idle", 20, corner=True)),
        Preset("fig9", "five-qubit center X gate under single-site modulation", partial(_fm_preset, STAR, _X2, "fm2-x", 21, single_site=True)),
        Preset("fig10", "five-qubit idle under the decoupling train", partial(_dd_preset, STAR, Idle, 20)),
        Preset("fig11", "five-qubit center X gate inside the decoupling train", partial(_dd_preset, STAR, _X2, 21)),
        Preset("fig12", "idle second-order residual vs modulation amplitude", partial(_scan_preset, "fm2-idle")),
        Preset("fig13", "X-gate second-order residual vs modulation amplitude", partial(_scan_preset, "fm2-x")),
        Preset("fig14", "single-site modulated X gate on the shared qubit (pair layout)", partial(_fm_preset, PAIR, _X2, "fm2-x", 21, single_site=True)),
        Preset("fig15", "parallel X gates on both qubits under modulation", partial(_fm_preset, PAIR, ParallelXX, "fm2-x", 21)),
        Preset("fig16", "unmatched 30 ns gate time: first-order scans, J sweep, 15-gate run", _preset_fig16),
        Preset("fig17", "single-site decoupled X gate on the shared qubit (pair layout)", partial(_dd_preset, PAIR, _X2, 21)),
        Preset("fig18", "parallel X gates inside the decoupling train", partial(_dd_preset, PAIR, ParallelXX, 21)),
    ]
}


def run_preset(name: str, *, step: float = DEFAULT_STEP) -> List[Row]:
    """Build a preset's rows, sorted canonically by (series, scheme, abscissa)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    rows = PRESETS[name].build(step)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows
