"""Gate-level simulations: fidelities, repeated-gate series, sweeps, presets.

Everything here reduces to assembling a time-dependent Hamiltonian,
propagating it exactly, block by block (``AssembledHamiltonian.blocks``),
and comparing the result against the ideal gate with a trace-overlap
fidelity.  A run of gates propagates windows of one gate's assembly, its
coupling phase advanced per gate, so a 20-gate series at a matched duration
costs at most two propagations.  Every score takes one path, ``_score``: a
``SchemeRun`` assembled once (once per corner amplitude if corner-averaged)
and scored after k gates at a stack of couplings, the system's J in
``run_sequence`` and a J grid in ``sweep_j``.  The preset registry at the
bottom packages the shipped experiments as flat (series, scheme, abscissa,
value) rows for the CLI.

Units follow the rest of the package: times in ns, frequencies and
amplitudes in rad/ns internally, with cyclic MHz at the boundaries (J grids,
waveform samples, scan abscissae).
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
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
from xtalksim.operators import positive, positive_int
from xtalksim.optimize import GammaScan, check_window, corner_averaged_fidelity, scan_gamma

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


def gate_fidelity(u_gate: np.ndarray, u_ideal: np.ndarray):
    """Trace-overlap fidelity |Tr(U† V)| / |Tr(V† V)|, a float for two
    matrices and an array for two ``(..., d, d)`` stacks of one shape.

    Insensitive to a global phase on either argument.  The denominator is
    the dimension whenever the ideal gate is unitary.
    """
    u_gate = np.asarray(u_gate)
    u_ideal = np.asarray(u_ideal)
    if u_gate.shape != u_ideal.shape:
        raise ValueError(f"dimension mismatch: {u_gate.shape} vs {u_ideal.shape}")
    # Tr(A† V) sums the column sums of conj(A) * V, the diagonal of A† V.  np.hypot
    # rounds |Tr| as the scalar abs does; numpy's complex np.abs may differ by an ulp.
    traces = [(a.conj() * u_ideal).sum(axis=-2).sum(axis=-1) for a in (u_gate, u_ideal)]
    overlap, norm = (np.hypot(t.real, t.imag) for t in traces)
    return float(overlap / norm) if np.ndim(overlap) == 0 else overlap / norm


def scheme_label(scheme: ControlScheme) -> str:
    if isinstance(scheme, CrosstalkOnly):
        return "CD"
    if isinstance(scheme, FrequencyModulation):
        return f"FM-N{scheme.cycles}"
    if isinstance(scheme, DynamicalDecoupling):
        return f"DD-Z{scheme.segments}" if scheme.pulses else "CD"
    raise TypeError(f"unsupported scheme {scheme!r}")


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


def run_single_gate(
    params: SystemParams,
    topology: Topology,
    scheme: ControlScheme,
    gate: GateSpec,
    *,
    step: float = DEFAULT_STEP,
) -> float:
    """Infidelity of one gate under the given control scheme: a one-gate sequence."""
    return float(run_sequence(params, topology, SchemeRun(scheme), gate, 1, step=step).infidelities[0])


def _sequence_counts(gate: GateSpec, repetitions: int) -> np.ndarray:
    """Gate counts at which a sequence is scored.

    Idle sequences report every count; driven gates report odd counts only,
    so the accumulated operation is the same net gate throughout.
    """
    positive_int("sequence length", repetitions)
    if isinstance(gate, Idle):
        return np.arange(1, repetitions + 1)
    if repetitions % 2 == 0:
        raise ValueError(f"driven-gate sequences need an odd length, got {repetitions}")
    return np.arange(1, repetitions + 1, 2)


def run_sequence(
    params: SystemParams,
    topology: Topology,
    run: SchemeRun,
    gate: GateSpec,
    repetitions: int,
    *,
    step: float = DEFAULT_STEP,
) -> FidelitySeries:
    """Infidelity of k consecutive gates under ``run`` versus the k-fold target
    at J = ``params.j``, scored by ``_score`` after each of ``_sequence_counts``."""
    abscissa, infidelities = _score(params, topology, run, gate, repetitions, (params.j,), step)
    return FidelitySeries(run.label, abscissa, infidelities[0], _sequence_counts(gate, repetitions))


def _score(
    params: SystemParams, topology: Topology, run: SchemeRun, gate: GateSpec,
    repetitions: int, couplings: Tuple[complex, ...], step: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The abscissa k T + tail (a decoupling run's trailing half pulse) of each
    scored count k of ``repetitions`` gates, and the ``(C, counts)``
    infidelities of ``run`` there at each coupling (rad/ns) of ``couplings``,
    corner-averaged if it has a scan.  The abscissa is read from an assembly
    scored, so a corner run assembles once per corner amplitude."""
    counts = _sequence_counts(gate, repetitions)
    h = None

    def infidelities(scheme: ControlScheme) -> np.ndarray:
        nonlocal h
        h = dataclasses.replace(assemble_hamiltonian(params, topology, scheme, gate), couplings=couplings)
        return _infidelities(h, params, gate, counts, step)

    if run.corner_scan is None:
        values = infidelities(run.scheme)
    else:
        fidelities = lambda gamma: 1.0 - infidelities(dataclasses.replace(run.scheme, gamma=gamma))
        values = 1.0 - corner_averaged_fidelity(fidelities, run.corner_scan)
    return counts * h.gate_time + h.tail, values


def _infidelities(
    h: AssembledHamiltonian, params: SystemParams, gate: GateSpec, counts: np.ndarray, step: float
) -> np.ndarray:
    """Infidelity of gates ``h`` after each of the scored ``counts``, one row per
    coupling of its stack: shape ``(C, counts)``, scored in one fidelity call."""
    wanted = set(counts.tolist())
    # U_k = W_k U_{k-1} from the per-gate windows W_k, kept at the scored k.
    products = accumulate(_windowed_propagators(h, params, int(counts[-1]), step), lambda u, w: w @ u)
    u = np.stack([u_k for k, u_k in enumerate(products, start=1) if k in wanted])
    # The target of k gates depends on k mod 4 only.
    residues = (counts % 4).tolist()
    cycle = {r: target_unitary(gate, h.topology, repetitions=r or 4) for r in set(residues)}
    ideal = np.broadcast_to(np.stack([cycle[r] for r in residues])[:, None], u.shape)
    return (1.0 - gate_fidelity(u, ideal)).T


def _windowed_propagators(h: AssembledHamiltonian, params: SystemParams, repetitions: int, step: float):
    """Per-gate propagators U(kT+tail <- (k-1)T+tail), k = 1..``repetitions``.

    The controls repeat every gate and only the coupling phase moves on, by
    Delta T per gate: gate k is the steady window [tail, T + tail] with each
    coupling J taken to J e^{i (k-1) Delta T}, on the gate's block analysis.
    The advances repeat after the first matched p T (p = k if none), so each
    of the first p windows is propagated once.  The first is [0, T + tail],
    or the steady window after the head [0, tail] if the run reuses it.
    """
    t_gate, tail = h.gate_time, h.tail
    blocks = h.blocks()
    period = next((p for p in range(1, repetitions) if params.is_matched(p * t_gate)), repetitions)
    reused = period < repetitions
    windows = []
    for p in range(period):
        turn = cmath.exp(1j * p * params.delta * t_gate)
        advanced = dataclasses.replace(h, couplings=tuple(j * turn for j in h.couplings))
        start = tail if p or reused else 0.0
        windows.append(dataclasses.replace(blocks, hamiltonian=advanced).propagate(start, t_gate + tail, step))
    yield windows[0] @ blocks.propagate(0.0, tail, step) if reused and tail else windows[0]
    yield from (windows[k % period] for k in range(1, repetitions))


def cd_idle_reference_infidelity(params: SystemParams, topology: Topology, t: float) -> float:
    """Closed-form idle infidelity from static diagonalization (no integrator)."""
    u = static_frame_reference(params, topology, t)
    return max(0.0, 1.0 - gate_fidelity(u, np.eye(topology.dim)))


def check_j_grid(j_values_mhz: Iterable[float]) -> Tuple[float, ...]:
    """The J grid (cyclic MHz) as a tuple, if it has entries, all positive and finite."""
    j_grid = tuple(positive(f"J grid entry {k}", j) for k, j in enumerate(j_values_mhz))
    if not j_grid:
        raise ValueError("empty J grid")
    return j_grid


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

    Each run is scored as ``run_sequence`` scores one gate (``_score``), with
    the whole grid as one coupling stack (``model`` docstring).  The series
    follow the order of ``runs`` and their abscissa is the grid in cyclic
    MHz, in the order given.
    """
    j_grid = check_j_grid(DEFAULT_J_GRID_MHZ if j_values_mhz is None else j_values_mhz)
    couplings = tuple(cyclic_mhz_to_angular(j) for j in j_grid)
    return [
        FidelitySeries(
            run.label,
            np.asarray(j_grid, dtype=float),
            _score(params, topology, run, gate, 1, couplings, step)[1][:, 0],
        )
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Amplitude-scan cache (the scans are pure functions of their key)

_SCAN_CACHE: Dict[tuple, GammaScan] = {}


def cached_scan(
    functional: str, params: SystemParams, cycles: int, gate_time: float
) -> GammaScan:
    """``scan_gamma`` on its default grid, memoized; a hit checks its window as a miss does."""
    check_window(functional, cycles, gate_time)
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
    for name, channel, _ in h.controls:
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
    series = [run_sequence(params, topology, run, gate, repetitions, step=step) for run in runs]
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


def _scan_table(functional: str, step: float, gate_time: float = T_M) -> List[Row]:
    """The preset system's scans at each of ``FM_CYCLES`` (``step`` is unused)."""
    rows: List[Row] = []
    for n in FM_CYCLES:
        rows += _scan_rows(f"FM-N{n}", cached_scan(functional, PRESET_PARAMS, n, gate_time))
    return rows


def _preset_fig16(step: float) -> List[Row]:
    # Unmatched, so first-order averaging fails on its own: the amplitude
    # minimizes the first-order residual instead.
    t_gate = 3.0 * PRESET_PARAMS.t_delta
    gate = _X1(t_gate)
    runs = _fm_runs(PRESET_PARAMS, t_gate, "fm1")
    rows = _scan_table("fm1", step, t_gate)
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
        Preset("fig12", "idle second-order residual vs modulation amplitude", partial(_scan_table, "fm2-idle")),
        Preset("fig13", "X-gate second-order residual vs modulation amplitude", partial(_scan_table, "fm2-x")),
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
