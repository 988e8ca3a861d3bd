"""Output checks for every CSV a task returns.

Each check compares against something the task's output does not produce
itself: the task's own config (row count and abscissae), an independent
reference in the package (static diagonalization for bare-crosstalk idle
gates, closed forms for the unmodulated second-order functional), or the
amplitude indices recorded from the seed implementation.

Tolerances are loose enough for a known roundoff bias of about 4% in
modulated-gate dip values and for a change of quadrature, and tight
enough to catch a wrong block, sign or frame, which moves results by
orders of magnitude.
"""

from __future__ import annotations

import math
import re
from types import SimpleNamespace

from configs import (
    DD_SEGMENTS,
    GAMMA_OPT_INDEX,
    GRID_STEP_MHZ,
    J_INDEPENDENT,
    MATCHED_NS,
    PRESET_J_MHZ,
    Task,
)

MHZ = 2.0 * math.pi * 1e-3  # rad/ns per cyclic MHz
DEFAULT_GRID_POINTS = 378  # 0 to 600 MHz in steps of 1.59 MHz

# Bare-crosstalk idle infidelity against static diagonalization.
CD_REL_TOL = 0.1
CD_ABS_TOL = 1e-10
# Modulated idle gates at (or next to) the selected amplitude suppress the
# bare-crosstalk infidelity about a million-fold; a wrong frame or sign
# loses that.
FM_IDLE_MAX_RATIO = 1e-3
# A single mitigated or driven gate scores far below this; an X on the
# wrong qubit scores about 1.
SINGLE_GATE_MAX = 0.5
# Unmodulated second-order functional against its closed form.
CLOSED_FORM_REL_TOL = 1e-3
# fm1 at the matched time and zero amplitude, in MHz.
FM1_ZERO_ABS_TOL = 1e-9
ABSCISSA_REL_TOL = 1e-9

_TOPOLOGIES = {
    "pair": SimpleNamespace(n_qubits=2, center=2, edges=((1, 2),), dim=4),
    "star": SimpleNamespace(
        n_qubits=5, center=2, edges=((1, 2), (3, 2), (4, 2), (5, 2)), dim=32
    ),
}
_GAMMA_HEADER = re.compile(r"gamma_mhz = ([0-9.eE+-]+)")


def parse_csv(text: str):
    """Header lines (without '# ') and rows (series, scheme, abscissa, value)."""
    header, rows = [], []
    lines = text.splitlines()
    while lines and lines[0].startswith("# "):
        header.append(lines.pop(0)[2:])
    if not lines or lines.pop(0) != "series,scheme,abscissa,value":
        raise ValueError("missing column header")
    for line in lines:
        series, scheme, a, v = line.split(",")
        rows.append((series, scheme, float(a), float(v)))
    return header, rows


def _params(delta_mhz: float, j_mhz: float):
    # Duck-typed: the references read only ``delta`` and ``j`` (rad/ns).
    return SimpleNamespace(delta=delta_mhz * MHZ, j=j_mhz * MHZ)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= ABSCISSA_REL_TOL * max(abs(a), abs(b), 1.0)


class Checker:
    """Checks task outputs; reference values are computed once and reused."""

    def __init__(self):
        from xtalksim.experiments import cd_idle_reference_infidelity
        from xtalksim.magnus import dd_second_order_closed_forms

        self._cd_reference = cd_idle_reference_infidelity
        self._closed_forms = dd_second_order_closed_forms
        self._cache: dict = {}

    def cd_idle(self, topology: str, delta_mhz: float, j_mhz: float, t: float) -> float:
        key = ("cd", topology, delta_mhz, j_mhz, t)
        if key not in self._cache:
            self._cache[key] = self._cd_reference(
                _params(delta_mhz, j_mhz), _TOPOLOGIES[topology], t
            )
        return self._cache[key]

    def check(self, task: Task, code: int, text: str) -> list[str]:
        """Problems found in one task's exit code and CSV; empty when good."""
        cfg = task.config
        matched_fm1 = task.command == "optimize-gamma" and cfg["functional"] == "fm1" \
            and cfg.get("gate_time", "matched") == "matched"
        # fm1 vanishes identically at the matched time, so "no minimum in
        # range" (exit 3, scan still written) is as correct as a noise minimum.
        if code != 0 and not (matched_fm1 and code == 3):
            return [f"exit code {code}"]
        try:
            header, rows = parse_csv(text)
        except ValueError as e:
            return [f"unparsable CSV: {e}"]
        if task.command == "simulate":
            return self._check_simulate(cfg, header, rows)
        return self._check_scan(cfg, header, rows, code)

    # -- simulate -----------------------------------------------------------

    def _check_simulate(self, cfg, header, rows) -> list[str]:
        problems = []
        t_gate = MATCHED_NS if cfg.get("gate_time", "matched") == "matched" else cfg["gate_time"]
        j = cfg["j_mhz"]
        reps = cfg.get("repetitions", 1)
        if isinstance(j, list):
            series, expected = "vs_J", sorted(j)
        elif reps > 1:
            series = "vs_time"
            counts = range(1, reps + 1) if cfg["gate"] == "idle" else range(1, reps + 1, 2)
            tail = t_gate / (8.0 * DD_SEGMENTS) if cfg["scheme"] == "dd" else 0.0
            expected = [k * t_gate + tail for k in counts]
        else:
            series, expected = "single", [t_gate]
        if [r[0] for r in rows] != [series] * len(expected):
            return [f"expected {len(expected)} {series} rows, got {len(rows)}"]
        for (_, _, a, v), want in zip(rows, expected):
            if not _close(a, want):
                problems.append(f"abscissa {a!r} where {want!r} was expected")
            if not (math.isfinite(v) and 0.0 <= v <= 1.0):
                problems.append(f"infidelity {v!r} outside [0, 1]")
        if problems:
            return problems

        for _, _, a, v in rows:
            j_mhz = a if series == "vs_J" else j
            t = a if series == "vs_time" else t_gate
            if cfg["gate"] == "idle" and cfg["scheme"] in ("cd", "dd-baseline"):
                ref = self.cd_idle(cfg["topology"], cfg["delta_mhz"], j_mhz, t)
                if abs(v - ref) > CD_REL_TOL * ref + CD_ABS_TOL:
                    problems.append(f"CD idle J={j_mhz} t={t}: {v!r} vs static reference {ref!r}")
            elif cfg["gate"] == "idle" and cfg["scheme"] == "fm":
                ref = self.cd_idle(cfg["topology"], cfg["delta_mhz"], j_mhz, t)
                if v > FM_IDLE_MAX_RATIO * ref:
                    problems.append(f"FM idle J={j_mhz} t={t}: {v!r} not below CD {ref!r}")
            elif series != "vs_time" and v > SINGLE_GATE_MAX:
                problems.append(f"single gate J={j_mhz}: infidelity {v!r}")

        if cfg["scheme"] == "fm" and cfg.get("gamma_mhz") == "optimize":
            match = next((m for m in map(_GAMMA_HEADER.search, header) if m), None)
            j_scan = j[0] if isinstance(j, list) else j
            if match is None:
                problems.append("no gamma_mhz in header")
            else:
                problems += _index_problem(
                    cfg["functional"], t_gate, cfg["cycles"], j_scan, float(match.group(1))
                )
        return problems

    # -- optimize-gamma -----------------------------------------------------

    def _check_scan(self, cfg, header, rows, code) -> list[str]:
        problems = []
        functional = cfg["functional"]
        matched = cfg.get("gate_time", "matched") == "matched"
        t_gate = MATCHED_NS if matched else cfg["gate_time"]
        scan = [r for r in rows if r[0] == "scan"]
        summary = [r for r in rows if r[0] == "summary"]
        if len(scan) != DEFAULT_GRID_POINTS or len(summary) != (1 if code == 0 else 0) \
                or len(rows) != len(scan) + len(summary):
            return [f"expected {DEFAULT_GRID_POINTS} scan rows and a summary, got {len(rows)} rows"]
        for k, (_, _, a, v) in enumerate(scan):
            if not _close(a, k * GRID_STEP_MHZ):
                problems.append(f"grid point {k} at {a!r} MHz")
            if not (math.isfinite(v) and v >= 0.0):
                problems.append(f"functional value {v!r} at {a!r} MHz")
        if problems:
            return problems

        zero = scan[0][3]
        if functional == "fm1" and matched and abs(zero) > FM1_ZERO_ABS_TOL:
            problems.append(f"fm1 at the matched time and zero amplitude is {zero!r}, not 0")
        if functional == "fm2-idle" and matched:
            ref = self._closed_forms(_params(cfg["delta_mhz"], cfg["j_mhz"])).crosstalk_only / MHZ
            if abs(zero - ref) > CLOSED_FORM_REL_TOL * ref:
                problems.append(f"fm2-idle at zero amplitude {zero!r} vs closed form {ref!r}")
        if summary:
            problems += _index_problem(functional, t_gate, cfg["cycles"], cfg["j_mhz"], summary[0][2])
        return problems


def _index_problem(functional, t_gate, cycles, j_mhz, gamma_mhz) -> list[str]:
    """Selected amplitude against the recorded grid index, where it applies."""
    want = GAMMA_OPT_INDEX.get((functional, t_gate, cycles))
    if want is None or (functional not in J_INDEPENDENT and j_mhz != PRESET_J_MHZ):
        return []
    got = gamma_mhz / GRID_STEP_MHZ
    if abs(got - want) > 1e-6:
        return [f"{functional} N={cycles} selected grid index {got:.6g}, recorded {want}"]
    return []
