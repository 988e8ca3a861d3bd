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
import math
from dataclasses import dataclass
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

DEFAULT_DELTA_MHZ = 50.0
DEFAULT_J_MHZ = 5.0


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


def improvement_orders(reference_infidelity: float, infidelity: float) -> float:
    """log10 of the infidelity reduction relative to a reference scheme."""
    if reference_infidelity <= 0.0:
        return 0.0
    if infidelity <= 0.0:
        return math.inf
    return math.log10(reference_infidelity / infidelity)


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
    """Infidelity of one gate under the given control scheme.

    Propagates over [0, T] (decoupling runs extend to T plus half a pulse
    width so the trailing pulse completes) and compares against the ideal
    target.  Roundoff below zero is clamped.
    """
    h = assemble_hamiltonian(params, topology, scheme, gate)
    u = h.blocks().propagate(TimeGrid.with_max_step(0.0, h.t_end, step, h.breakpoints))
    fidelity = gate_fidelity(u, target_unitary(gate, topology))
    return max(0.0, 1.0 - fidelity)


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
    label: str = "",
) -> FidelitySeries:
    """Infidelity of k consecutive gates versus the k-fold target.

    Scored after each whole gate, at k T plus any trailing half pulse.  At a
    matched duration the assembled Hamiltonian is periodic, so the run needs
    only the first-window and steady-window propagators; otherwise each gate
    window is propagated separately and composed in order.
    """
    counts = _sequence_counts(gate, repetitions)
    h = assemble_hamiltonian(params, topology, scheme, gate, repetitions=repetitions)
    t_gate, tail = h.gate_time, h.tail

    unitaries = _windowed_propagators(h, repetitions, step)
    wanted = set(int(k) for k in counts)
    infidelities = np.empty(counts.size, dtype=float)
    u = None
    slot = 0
    for k, u_window in enumerate(unitaries, start=1):
        u = u_window if u is None else u_window @ u
        if k in wanted:
            fidelity = gate_fidelity(u, target_unitary(gate, topology, repetitions=k))
            infidelities[slot] = 1.0 - fidelity
            slot += 1
    return FidelitySeries(
        scheme=label or scheme_label(scheme),
        abscissa=counts * t_gate + tail,
        infidelities=infidelities,
        counts=counts,
    )


def _windowed_propagators(h, repetitions: int, step: float):
    """Per-gate propagators U(kT+tail <- (k-1)T+tail), first window from 0.

    Periodic assemblies reuse the steady window for k >= 2.
    """
    t_gate, tail = h.gate_time, h.tail
    blocks = h.blocks()

    def window(t_start: float, t_end: float) -> np.ndarray:
        return blocks.propagate(TimeGrid.with_max_step(t_start, t_end, step, h.breakpoints))

    u_first = window(0.0, t_gate + tail)
    yield u_first
    if repetitions == 1:
        return
    if h.periodic:
        u_period = u_first if tail == 0.0 else window(tail, t_gate + tail)
        for _ in range(2, repetitions + 1):
            yield u_period
    else:
        for k in range(2, repetitions + 1):
            yield window((k - 1) * t_gate + tail, k * t_gate + tail)


def cd_idle_reference_infidelity(params: SystemParams, topology: Topology, t: float) -> float:
    """Closed-form idle infidelity from static diagonalization (no integrator)."""
    u = static_frame_reference(params, topology, t)
    return max(0.0, 1.0 - gate_fidelity(u, np.eye(topology.dim)))


# ---------------------------------------------------------------------------
# Scheme bundles for sweeps


@dataclass(frozen=True)
class SchemeRun:
    """A labeled scheme plus how to score it.

    When ``corner_scan`` is set the fidelity is averaged over the two grid
    points flanking the scan optimum (idle-gate modulation reporting);
    otherwise the scheme is simulated as given.
    """

    label: str
    scheme: ControlScheme
    corner_scan: Optional[GammaScan] = None


def _scored_infidelity(
    params: SystemParams,
    topology: Topology,
    run: SchemeRun,
    gate: GateSpec,
    step: float,
) -> float:
    if run.corner_scan is None:
        return run_single_gate(params, topology, run.scheme, gate, step=step)
    fidelity = corner_averaged_fidelity(
        lambda gamma: 1.0
        - run_single_gate(
            params,
            topology,
            dataclasses.replace(run.scheme, gamma=gamma),
            gate,
            step=step,
        ),
        run.corner_scan,
    )
    return max(0.0, 1.0 - fidelity)


def _scored_sequence(
    params: SystemParams,
    topology: Topology,
    run: SchemeRun,
    gate: GateSpec,
    repetitions: int,
    step: float,
) -> FidelitySeries:
    if run.corner_scan is None:
        return run_sequence(
            params,
            topology,
            run.scheme,
            gate,
            repetitions,
            step=step,
            label=run.label,
        )

    def fidelities(gamma: float) -> np.ndarray:
        series = run_sequence(
            params,
            topology,
            dataclasses.replace(run.scheme, gamma=gamma),
            gate,
            repetitions,
            step=step,
        )
        return 1.0 - series.infidelities

    averaged = corner_averaged_fidelity(fidelities, run.corner_scan)
    counts = _sequence_counts(gate, repetitions)
    return FidelitySeries(
        scheme=run.label,
        abscissa=counts * gate.duration,
        infidelities=1.0 - averaged,
        counts=counts,
    )


def sweep_j(
    params: SystemParams,
    topology: Topology,
    runs: Sequence[SchemeRun],
    gate: GateSpec,
    j_values_mhz: Optional[Sequence[float]] = None,
    *,
    step: float = DEFAULT_STEP,
    map_fn: Callable = map,
) -> List[FidelitySeries]:
    """One infidelity series per scheme over a coupling-strength grid.

    Cells are independent (scheme, J) tasks; ``map_fn`` may evaluate them
    concurrently, and the output ordering does not depend on it.
    """
    j_grid = DEFAULT_J_GRID_MHZ if j_values_mhz is None else tuple(j_values_mhz)
    if len(j_grid) == 0:
        raise ValueError("empty J grid")
    if any(j <= 0 for j in j_grid):
        raise ValueError(f"coupling strengths must be positive, got {j_grid}")
    cells = [(run, j_mhz) for run in runs for j_mhz in j_grid]

    def evaluate(cell) -> float:
        run, j_mhz = cell
        p = dataclasses.replace(params, j=2.0 * math.pi * 1e-3 * j_mhz)
        return _scored_infidelity(p, topology, run, gate, step)

    flat = list(map_fn(evaluate, cells))
    series = []
    for i, run in enumerate(runs):
        block = flat[i * len(j_grid) : (i + 1) * len(j_grid)]
        series.append(
            FidelitySeries(
                scheme=run.label,
                abscissa=np.asarray(j_grid, dtype=float),
                infidelities=np.asarray(block, dtype=float),
            )
        )
    return series


def non_matched_study(
    params: SystemParams,
    t_gate: float,
    cycles: Sequence[int] = (4, 6, 8),
    *,
    j_values_mhz: Optional[Sequence[float]] = None,
    sequence_length: int = 15,
    step: float = DEFAULT_STEP,
    map_fn: Callable = map,
) -> Dict[str, object]:
    """Modulation at a gate time where first-order averaging fails.

    Away from matched durations the leading-order coupling does not cancel
    on its own, so the amplitude is chosen to minimize the first-order
    residual instead.  Runs an X gate on qubit 1: amplitude scans per cycle
    count, a single-gate J sweep, and odd-count sequences up to
    ``sequence_length`` gates at the given J.
    """
    if params.is_matched(t_gate):
        raise ValueError(
            f"gate time {t_gate} ns is matched; this study needs an unmatched duration"
        )
    topology = PAIR
    gate = XGate(t_gate, target=1)
    scans = {n: cached_scan("fm1", params, n, t_gate) for n in cycles}
    runs = [SchemeRun("CD", CrosstalkOnly())]
    for n in cycles:
        if not scans[n].found:
            raise ValueError(f"no amplitude minimum in range for N={n}")
        runs.append(
            SchemeRun(f"FM-N{n}", FrequencyModulation(cycles=n, gamma=scans[n].gamma_opt))
        )
    single = sweep_j(params, topology, runs, gate, j_values_mhz, step=step, map_fn=map_fn)
    sequences = [
        _scored_sequence(params, topology, run, gate, sequence_length, step)
        for run in runs
    ]
    return {"scans": scans, "single": single, "sequences": sequences}


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


def _waveform_rows(h: AssembledHamiltonian, points: int = 801) -> List[Row]:
    """Sample the named control channels of ``h`` over [0, t_end], in cyclic MHz."""
    t = np.linspace(0.0, h.t_end, points)
    rows: List[Row] = []
    for name, channel in h.controls().items():
        values = angular_to_cyclic_mhz(np.asarray(channel(t), dtype=float))
        rows.extend(("waveform", name, float(a), float(v)) for a, v in zip(t, values))
    return rows


def _scan_rows(label: str, scan: GammaScan, series_name: str = "scan") -> List[Row]:
    rows = [
        (series_name, label, angular_to_cyclic_mhz(float(g)), angular_to_cyclic_mhz(float(v)))
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


def _default_params() -> SystemParams:
    return SystemParams.from_mhz(DEFAULT_DELTA_MHZ, DEFAULT_J_MHZ)


def _fm_runs(
    params: SystemParams,
    gate_time: float,
    functional: str,
    cycles: Sequence[int] = (4, 6, 8),
    *,
    corner: bool = False,
    single_site: bool = False,
) -> List[SchemeRun]:
    runs = [SchemeRun("CD", CrosstalkOnly())]
    for n in cycles:
        scan = cached_scan(functional, params, n, gate_time)
        if not scan.found:
            raise ValueError(f"no amplitude minimum in range for N={n}")
        runs.append(
            SchemeRun(
                f"FM-N{n}",
                FrequencyModulation(cycles=n, gamma=scan.gamma_opt, single_site=single_site),
                corner_scan=scan if corner else None,
            )
        )
    return runs


def _dd_runs(decoupling: DynamicalDecoupling) -> List[SchemeRun]:
    return [
        SchemeRun("CD", dataclasses.replace(decoupling, pulses=False)),
        SchemeRun(f"DD-Z{decoupling.segments}", decoupling),
    ]


def _preset_fig2(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    topology = PAIR
    gate_times = np.arange(2.0, 60.0 + 0.25, 0.5)

    def cell(t: float) -> float:
        return run_single_gate(params, topology, CrosstalkOnly(), Idle(float(t)), step=step)

    values = list(map_fn(cell, gate_times))
    return [("vs_gate_time", "CD", float(t), float(v)) for t, v in zip(gate_times, values)]


def _preset_fig3b(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    runs = _fm_runs(params, t_m, "fm2-idle", corner=True)
    series = sweep_j(params, PAIR, runs, Idle(t_m), step=step, map_fn=map_fn)
    return _series_rows("vs_J", series)


def _preset_fig3c(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    runs = _fm_runs(params, t_m, "fm2-idle", corner=True)
    series = list(
        map_fn(
            lambda run: _scored_sequence(params, PAIR, run, Idle(t_m), 20, step),
            runs,
        )
    )
    return _series_rows("vs_time", series)


def _preset_fig4a(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    scan = cached_scan("fm2-x", params, 4, t_m)
    scheme = FrequencyModulation(cycles=4, gamma=scan.gamma_opt)
    h = assemble_hamiltonian(params, PAIR, scheme, XGate(t_m, target=1), fm_frame="operation")
    return _waveform_rows(h)


def _preset_fig4b(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    runs = _fm_runs(params, t_m, "fm2-x")
    series = sweep_j(params, PAIR, runs, XGate(t_m, target=1), step=step, map_fn=map_fn)
    return _series_rows("vs_J", series)


def _preset_fig4c(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    runs = _fm_runs(params, t_m, "fm2-x")
    series = list(
        map_fn(
            lambda run: _scored_sequence(
                params, PAIR, run, XGate(t_m, target=1), 21, step
            ),
            runs,
        )
    )
    return _series_rows("vs_time", series)


def _dd_preset(
    topology: Topology,
    gate_factory: Callable[[float], GateSpec],
    repetitions: int,
    step: float,
    map_fn: Callable,
) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    decoupling = DynamicalDecoupling(segments=4, width=t_m / 16.0)
    gate = gate_factory(t_m)
    runs = _dd_runs(decoupling)
    rows = _waveform_rows(assemble_hamiltonian(params, topology, decoupling, gate))
    rows += _series_rows(
        "vs_J", sweep_j(params, topology, runs, gate, step=step, map_fn=map_fn)
    )
    series = list(
        map_fn(
            lambda run: _scored_sequence(params, topology, run, gate, repetitions, step),
            runs,
        )
    )
    rows += _series_rows("vs_time", series)
    return rows


def _preset_fig5(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(PAIR, Idle, 20, step, map_fn)


def _preset_fig6(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(PAIR, lambda t: XGate(t, target=1), 21, step, map_fn)


def _fm_preset(
    topology: Topology,
    gate_factory: Callable[[float], GateSpec],
    functional: str,
    repetitions: int,
    step: float,
    map_fn: Callable,
    *,
    corner: bool = False,
    single_site: bool = False,
    waveform_cycles: int = 4,
) -> List[Row]:
    params = _default_params()
    t_m = params.matched_time()
    gate = gate_factory(t_m)
    runs = _fm_runs(params, t_m, functional, corner=corner, single_site=single_site)
    scan = cached_scan(functional, params, waveform_cycles, t_m)
    waveform_scheme = FrequencyModulation(
        cycles=waveform_cycles, gamma=scan.gamma_opt, single_site=single_site
    )
    rows = _waveform_rows(
        assemble_hamiltonian(params, topology, waveform_scheme, gate, fm_frame="operation")
    )
    rows += _series_rows(
        "vs_J", sweep_j(params, topology, runs, gate, step=step, map_fn=map_fn)
    )
    series = list(
        map_fn(
            lambda run: _scored_sequence(params, topology, run, gate, repetitions, step),
            runs,
        )
    )
    rows += _series_rows("vs_time", series)
    return rows


def _preset_fig8(step: float, map_fn: Callable) -> List[Row]:
    return _fm_preset(STAR, Idle, "fm2-idle", 20, step, map_fn, corner=True)


def _preset_fig9(step: float, map_fn: Callable) -> List[Row]:
    return _fm_preset(
        STAR,
        lambda t: XGate(t, target=2),
        "fm2-x",
        21,
        step,
        map_fn,
        single_site=True,
    )


def _preset_fig10(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(STAR, Idle, 20, step, map_fn)


def _preset_fig11(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(STAR, lambda t: XGate(t, target=2), 21, step, map_fn)


def _functional_scan_preset(functional: str) -> Callable:
    def build(step: float, map_fn: Callable) -> List[Row]:
        params = _default_params()
        t_m = params.matched_time()
        rows: List[Row] = []
        for n in (4, 6, 8):
            rows += _scan_rows(f"FM-N{n}", cached_scan(functional, params, n, t_m))
        return rows

    return build


def _preset_fig14(step: float, map_fn: Callable) -> List[Row]:
    return _fm_preset(
        PAIR,
        lambda t: XGate(t, target=2),
        "fm2-x",
        21,
        step,
        map_fn,
        single_site=True,
    )


def _preset_fig15(step: float, map_fn: Callable) -> List[Row]:
    return _fm_preset(PAIR, ParallelXX, "fm2-x", 21, step, map_fn)


def _preset_fig16(step: float, map_fn: Callable) -> List[Row]:
    params = _default_params()
    t_gate = 3.0 * params.t_delta
    study = non_matched_study(params, t_gate, step=step, map_fn=map_fn)
    rows: List[Row] = []
    for n, scan in study["scans"].items():
        rows += _scan_rows(f"FM-N{n}", scan)
    rows += _series_rows("vs_J", study["single"])
    rows += _series_rows("vs_time", study["sequences"])
    return rows


def _preset_fig17(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(PAIR, lambda t: XGate(t, target=2), 21, step, map_fn)


def _preset_fig18(step: float, map_fn: Callable) -> List[Row]:
    return _dd_preset(PAIR, ParallelXX, 21, step, map_fn)


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    build: Callable[[float, Callable], List[Row]]


PRESETS: Dict[str, Preset] = {
    p.name: p
    for p in [
        Preset("fig2", "bare-crosstalk idle infidelity vs gate time, 2-60 ns", _preset_fig2),
        Preset("fig3b", "idle infidelity vs J: bare crosstalk and modulation N=4/6/8", _preset_fig3b),
        Preset("fig3c", "20 consecutive idle gates at J/2pi = 5 MHz", _preset_fig3c),
        Preset("fig4a", "X-gate drive and modulation waveforms, N=4", _preset_fig4a),
        Preset("fig4b", "X-gate infidelity vs J under modulation", _preset_fig4b),
        Preset("fig4c", "21 consecutive X gates under modulation", _preset_fig4c),
        Preset("fig5", "idle gate under a 4-pulse decoupling train: waveform, J sweep, 20-gate run", _preset_fig5),
        Preset("fig6", "X gate inside a 4-pulse decoupling train: waveform, J sweep, 21-gate run", _preset_fig6),
        Preset("fig8", "five-qubit idle under modulation: waveform, J sweep, 20-gate run", _preset_fig8),
        Preset("fig9", "five-qubit center X gate under single-site modulation", _preset_fig9),
        Preset("fig10", "five-qubit idle under the decoupling train", _preset_fig10),
        Preset("fig11", "five-qubit center X gate inside the decoupling train", _preset_fig11),
        Preset("fig12", "idle second-order residual vs modulation amplitude", _functional_scan_preset("fm2-idle")),
        Preset("fig13", "X-gate second-order residual vs modulation amplitude", _functional_scan_preset("fm2-x")),
        Preset("fig14", "single-site modulated X gate on the shared qubit (pair layout)", _preset_fig14),
        Preset("fig15", "parallel X gates on both qubits under modulation", _preset_fig15),
        Preset("fig16", "unmatched 30 ns gate time: first-order scans, J sweep, 15-gate run", _preset_fig16),
        Preset("fig17", "single-site decoupled X gate on the shared qubit (pair layout)", _preset_fig17),
        Preset("fig18", "parallel X gates inside the decoupling train", _preset_fig18),
    ]
}


def run_preset(
    name: str, *, step: float = DEFAULT_STEP, map_fn: Callable = map
) -> List[Row]:
    """Build a preset's rows, sorted canonically by (series, scheme, abscissa)."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    rows = PRESETS[name].build(step, map_fn)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows
