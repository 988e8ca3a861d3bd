"""Command-line front end: structured config in, deterministic CSV out.

Four subcommands: ``simulate`` (presets or a JSON config), ``optimize-gamma``
(amplitude scan plus selected optimum), ``verify`` (oracle and convergence
checks), and ``list-presets``.  All frequencies in config files are cyclic
MHz, converted once at load; CSV rows carry full 17-digit precision so
identical configs produce byte-identical files.

Exit codes: 0 success, 1 invalid config or usage (argument errors too), 2
failed verification check, 3 amplitude scan found no minimum in range (the
scan is still written), 4 internal error.  Configs are validated up front by
building what the run builds, so an error raised later is an internal error:
``main`` lets it propagate, and the console entry point ``entry`` prints its
traceback and exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from typing import List, Optional, Sequence, Tuple

import numpy as np

from xtalksim.experiments import (
    DEFAULT_STEP,
    PRESETS,
    Row,
    SchemeRun,
    _scan_rows,
    _sequence_counts,
    cached_scan,
    gate_fidelity,
    run_preset,
    run_single_gate,
    score_run,
    sweep_j,
)
from xtalksim.magnus import dd_second_order_closed_forms, epsilon_dd2_numeric, epsilon_fm2_idle
from xtalksim.model import (
    PAIR,
    STAR,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    Idle,
    ParallelXX,
    SystemParams,
    XGate,
    angular_to_cyclic_mhz,
    assemble_hamiltonian,
    cyclic_mhz_to_angular,
    static_frame_reference,
)
from xtalksim.operators import TimeGrid, propagate, unitarity_defect
from xtalksim.optimize import (
    DEFAULT_GRID_MAX_MHZ,
    DEFAULT_GRID_STEP_MHZ,
    FUNCTIONALS,
    default_gamma_grid,
    scan_gamma,
)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_NO_MINIMUM = 3
EXIT_INTERNAL = 4


class ConfigError(Exception):
    """Invalid configuration or usage; maps to exit code 1."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_csv(out: Optional[str], header: Sequence[str], rows: Sequence[Row]) -> None:
    lines = [f"# {h}" for h in header]
    lines.append("series,scheme,abscissa,value")
    lines.extend(f"{s},{c},{_fmt(a)},{_fmt(v)}" for s, c, a, v in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as e:
            raise ConfigError(f"cannot write {out}: {e.strerror}")


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text (byte {e.start})")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return cfg


def _reject_unknown(cfg: dict, allowed: set, context: str) -> None:
    unknown = sorted(set(cfg) - allowed)
    if unknown:
        raise ConfigError(f"unknown {context} key(s): {', '.join(unknown)}")


def _get(cfg: dict, key: str, default, kinds, what: str):
    value = cfg.get(key, default)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise ConfigError(f"key {key!r} must be {what}, got {value!r}")
    return value


def _positive(cfg: dict, key: str, default: float) -> float:
    value = _get(cfg, key, default, (int, float), "a number")
    if not 0 < value < math.inf:
        raise ConfigError(f"key {key!r} must be positive and finite, got {value}")
    return float(value)


def _positive_int(cfg: dict, key: str, default: int) -> int:
    """A positive integer; integer-valued floats such as 4.0 are accepted."""
    value = _get(cfg, key, default, (int, float), "an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    if value <= 0:
        raise ConfigError(f"key {key!r} must be positive, got {value}")
    return int(value)


def _gate_time(cfg: dict, params: SystemParams) -> float:
    raw = cfg.get("gate_time", "matched")
    if raw == "matched":
        return params.matched_time()
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if not 0 < raw < math.inf:
            raise ConfigError(f"key 'gate_time' must be positive and finite, got {raw}")
        return float(raw)
    raise ConfigError(f"key 'gate_time' must be a number or \"matched\", got {raw!r}")


# ---------------------------------------------------------------------------
# simulate


# Keys that every scheme reads (``target`` only for gate x), then the keys
# that only one scheme reads; a config may set only its own scheme's.
COMMON_KEYS = {
    "topology",
    "delta_mhz",
    "j_mhz",
    "scheme",
    "gate",
    "target",
    "gate_time",
    "repetitions",
    "step_ns",
}
SCHEME_KEYS = {
    "cd": set(),
    "fm": {"cycles", "gamma_mhz", "functional", "single_site", "corner_average"},
    "dd": {"segments", "width_ns"},
    "dd-baseline": {"segments", "width_ns"},
}
SIMULATE_KEYS = COMMON_KEYS.union(*SCHEME_KEYS.values())


def _resolve_simulation(cfg: dict, step_override: Optional[float]):
    """Turn a config dict into (params, topology, run, gate, j_grid, reps, step, header)."""
    _reject_unknown(cfg, SIMULATE_KEYS, "simulate")

    topo_name = _get(cfg, "topology", "pair", str, "a string")
    if topo_name == "pair":
        topology = PAIR
    elif topo_name == "star":
        topology = STAR
    else:
        raise ConfigError(f"unknown topology {topo_name!r}; choose pair or star")

    delta_mhz = _positive(cfg, "delta_mhz", 50.0)
    j_raw = cfg.get("j_mhz", 5.0)
    if isinstance(j_raw, list):
        if not j_raw:
            raise ConfigError("key 'j_mhz' is an empty grid")
        if not all(isinstance(j, (int, float)) and not isinstance(j, bool) and 0 < j < math.inf for j in j_raw):
            raise ConfigError(f"key 'j_mhz' grid must hold positive numbers, got {j_raw}")
        j_grid: Optional[List[float]] = [float(j) for j in j_raw]
        j_scalar = float(j_raw[0])
    elif isinstance(j_raw, (int, float)) and not isinstance(j_raw, bool):
        if not 0 <= j_raw < math.inf:
            raise ConfigError(f"key 'j_mhz' must be finite and >= 0, got {j_raw}")
        j_grid = None
        j_scalar = float(j_raw)
    else:
        raise ConfigError(f"key 'j_mhz' must be a number or list, got {j_raw!r}")

    params = SystemParams.from_mhz(delta_mhz, j_scalar)
    gate_time = _gate_time(cfg, params)

    gate_name = _get(cfg, "gate", "idle", str, "a string")
    if gate_name == "idle":
        gate = Idle(gate_time)
    elif gate_name == "x":
        gate = XGate(gate_time, target=_positive_int(cfg, "target", 1))
    elif gate_name == "parallel-xx":
        gate = ParallelXX(gate_time)
    else:
        raise ConfigError(f"unknown gate {gate_name!r}; choose idle, x or parallel-xx")
    if "target" in cfg and gate_name != "x":
        raise ConfigError(f"key 'target' applies only to gate x, not {gate_name}")

    scheme_name = _get(cfg, "scheme", "cd", str, "a string")
    if scheme_name not in SCHEME_KEYS:
        raise ConfigError(
            f"unknown scheme {scheme_name!r}; choose cd, fm, dd or dd-baseline"
        )
    unread = set(cfg) - COMMON_KEYS - SCHEME_KEYS[scheme_name]
    if unread:
        raise ConfigError(f"scheme {scheme_name} does not read key(s) {', '.join(sorted(unread))}")
    header: List[str] = [
        f"topology = {topo_name}",
        f"delta_mhz = {_fmt(delta_mhz)}",
        f"gate = {gate_name}",
        f"gate_time_ns = {_fmt(gate_time)}",
    ]

    if scheme_name == "cd":
        run = SchemeRun(CrosstalkOnly())
        header.append("scheme = cd")
    elif scheme_name == "fm":
        single_site = _get(cfg, "single_site", False, bool, "a boolean")
        corner = _get(cfg, "corner_average", False, bool, "a boolean")
        cycles = _positive_int(cfg, "cycles", 4)
        gamma_raw = cfg.get("gamma_mhz", "optimize")
        scan = None
        if gamma_raw == "optimize":
            default_fn = "fm1" if not params.is_matched(gate_time) else (
                "fm2-idle" if gate_name == "idle" else "fm2-x"
            )
            functional = _get(cfg, "functional", default_fn, str, "a string")
            if functional not in FUNCTIONALS:
                raise ConfigError(
                    f"unknown functional {functional!r}; choose from {', '.join(FUNCTIONALS)}"
                )
            # The scan's own errors are internal: they propagate to exit 4.
            scan = cached_scan(functional, params, cycles, gate_time)
            if not scan.found:
                raise ConfigError(
                    f"amplitude scan for {functional} N={cycles} found no minimum in range"
                )
            gamma = scan.gamma_opt
            header.append(f"functional = {functional}")
        elif isinstance(gamma_raw, (int, float)) and not isinstance(gamma_raw, bool):
            if "functional" in cfg:
                raise ConfigError("key 'functional' requires gamma_mhz = \"optimize\"")
            if not 0 <= gamma_raw < math.inf:
                raise ConfigError(f"key 'gamma_mhz' must be finite and >= 0, got {gamma_raw}")
            gamma = cyclic_mhz_to_angular(float(gamma_raw))
        else:
            raise ConfigError(
                f"key 'gamma_mhz' must be a number or \"optimize\", got {gamma_raw!r}"
            )
        if corner and scan is None:
            raise ConfigError("corner_average requires gamma_mhz = \"optimize\"")
        run = SchemeRun(
            FrequencyModulation(cycles=cycles, gamma=gamma, single_site=single_site),
            corner_scan=scan if corner else None,
        )
        header.append(
            f"scheme = fm (cycles = {cycles}, gamma_mhz = {_fmt(angular_to_cyclic_mhz(gamma))}, "
            f"single_site = {str(single_site).lower()}, corner_average = {str(corner).lower()})"
        )
    else:
        segments = _positive_int(cfg, "segments", 4)
        width = _positive(cfg, "width_ns", gate_time / (4.0 * segments))
        try:
            decoupling = DynamicalDecoupling(
                segments=segments, width=width, pulses=scheme_name == "dd"
            )
        except ValueError as e:
            raise ConfigError(str(e)) from None
        run = SchemeRun(decoupling)
        header.append(
            f"scheme = {scheme_name} (segments = {segments}, width_ns = {_fmt(width)})"
        )

    repetitions = _positive_int(cfg, "repetitions", 1)
    if j_grid is not None and repetitions > 1:
        raise ConfigError("choose a J grid or repeated gates, not both")
    # Build once what the run builds, so that model validation fails here.
    try:
        assemble_hamiltonian(params, topology, run.scheme, gate, repetitions=repetitions)
        _sequence_counts(gate, repetitions)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    step = step_override if step_override is not None else _positive(cfg, "step_ns", DEFAULT_STEP)
    if j_grid is not None:
        header.append(f"j_mhz = [{', '.join(_fmt(j) for j in j_grid)}]")
    else:
        header.append(f"j_mhz = {_fmt(j_scalar)}")
    header.append(f"repetitions = {repetitions}")
    header.append(f"step_ns = {_fmt(step)}")
    return params, topology, run, gate, j_grid, repetitions, step, header


def cmd_simulate(args) -> int:
    if (args.preset is None) == (args.config is None):
        raise ConfigError("simulate needs exactly one of --preset or --config")

    if args.preset is not None:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {args.preset!r}; see list-presets for the catalog"
            )
        step = args.step if args.step is not None else DEFAULT_STEP
        rows = run_preset(args.preset, step=step)
        header = [
            "xtalksim simulate",
            f"preset = {args.preset}",
            f"description = {PRESETS[args.preset].description}",
            f"step_ns = {_fmt(step)}",
        ]
        _write_csv(args.out, header, rows)
        return EXIT_OK

    cfg = _load_config(args.config)
    resolved = _resolve_simulation(cfg, args.step)
    params, topology, run, gate, j_grid, repetitions, step, cfg_header = resolved
    header = ["xtalksim simulate"] + cfg_header
    if j_grid is not None:
        name = "vs_J"
        series = sweep_j(params, topology, [run], gate, j_grid, step=step)[0]
    else:
        name = "vs_time" if repetitions > 1 else "single"
        series = score_run(params, topology, run, gate, repetitions, step=step)
    # A single gate is reported at its duration, without the trailing half pulse.
    abscissa = [gate.duration] if name == "single" else series.abscissa
    rows = [
        (name, series.scheme, float(a), float(v))
        for a, v in zip(abscissa, series.infidelities)
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# optimize-gamma


OPTIMIZE_KEYS = {
    "functional",
    "cycles",
    "delta_mhz",
    "j_mhz",
    "gate_time",
    "grid_step_mhz",
    "grid_max_mhz",
}


def cmd_optimize_gamma(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    _reject_unknown(cfg, OPTIMIZE_KEYS, "optimize-gamma")

    functional = _get(cfg, "functional", "fm2-idle", str, "a string")
    if functional not in FUNCTIONALS:
        raise ConfigError(
            f"unknown functional {functional!r}; choose from {', '.join(FUNCTIONALS)}"
        )
    cycles = _positive_int(cfg, "cycles", 4)
    delta_mhz = _positive(cfg, "delta_mhz", 50.0)
    j_mhz = _positive(cfg, "j_mhz", 5.0)
    params = SystemParams.from_mhz(delta_mhz, j_mhz)
    gate_time = _gate_time(cfg, params)
    grid_step = _positive(cfg, "grid_step_mhz", DEFAULT_GRID_STEP_MHZ)
    grid_max = _positive(cfg, "grid_max_mhz", DEFAULT_GRID_MAX_MHZ)
    try:
        grid = default_gamma_grid(grid_step, grid_max)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    scan = scan_gamma(functional, params, cycles, gate_time, grid=grid)
    label = f"FM-N{cycles}"
    header = [
        "xtalksim optimize-gamma",
        f"functional = {functional}",
        f"cycles = {cycles}",
        f"delta_mhz = {_fmt(delta_mhz)}",
        f"j_mhz = {_fmt(j_mhz)}",
        f"gate_time_ns = {_fmt(gate_time)}",
        f"grid_step_mhz = {_fmt(grid_step)}",
        f"grid_max_mhz = {_fmt(grid_max)}",
    ]
    rows = _scan_rows(label, scan)
    if scan.found:
        header.append(f"gamma_opt_mhz = {_fmt(scan.gamma_opt_mhz)}")
        # The selected point's row is the command's summary.
        rows[-1] = ("summary",) + rows[-1][1:]
    else:
        header.append("gamma_opt_mhz = none (no minimum in range)")
    _write_csv(args.out, header, rows)
    if not scan.found:
        print(
            f"no minimum in range for {functional} N={cycles}; scan written", file=sys.stderr
        )
        return EXIT_NO_MINIMUM
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


# Step (ns) of the dense star propagations in the star-reduction check.
STAR_REDUCTION_STEP = 0.02


def _verify_checks(step: float) -> List[Tuple[str, bool, str]]:
    params = SystemParams.from_mhz(50.0, 5.0)
    topology = PAIR
    t_m = params.matched_time()
    decoupling = DynamicalDecoupling(segments=4, width=t_m / 16.0)
    checks: List[Tuple[str, bool, str]] = []

    # Propagator unitarity for a plain and a pulsed assembly.
    worst = 0.0
    for scheme in (CrosstalkOnly(), decoupling):
        h = assemble_hamiltonian(params, topology, scheme, Idle(t_m))
        u = h.blocks().propagate(TimeGrid.with_max_step(0.0, h.t_end, step, h.breakpoints))
        worst = max(worst, unitarity_defect(u))
    checks.append(("unitarity", worst <= 1e-10, f"max defect {worst:.3e} (bound 1e-10)"))

    # Integrated bare-crosstalk idle against static diagonalization.
    h = assemble_hamiltonian(params, topology, CrosstalkOnly(), Idle(t_m))
    u = h.blocks().propagate(TimeGrid.with_max_step(0.0, t_m, step, h.breakpoints))
    residual = float(np.abs(u - static_frame_reference(params, topology, t_m)).max())
    checks.append(
        ("idle-oracle", residual <= 1e-8, f"max |U - U_exact| {residual:.3e} (bound 1e-8)")
    )

    # Triangle quadrature against the idle closed forms and their ratio.
    eps_cd = float(epsilon_fm2_idle(params, 4, np.zeros(1), t_m)[0])
    forms = dd_second_order_closed_forms(params)
    eps_dd = epsilon_dd2_numeric(params, 4, t_m)
    rel_cd = abs(eps_cd - forms.crosstalk_only) / forms.crosstalk_only
    rel_dd = abs(eps_dd - forms.decoupled) / forms.decoupled
    ratio = eps_dd / eps_cd
    rel_ratio = abs(ratio - forms.ratio) / forms.ratio
    ok = rel_cd <= 1e-6 and rel_dd <= 1e-6 and rel_ratio <= 1e-6
    checks.append(
        (
            "closed-forms",
            ok,
            f"rel residuals idle {rel_cd:.3e}, decoupled {rel_dd:.3e}, "
            f"ratio {rel_ratio:.3e} (bound 1e-6)",
        )
    )

    # Reported infidelities must be converged in the integrator step, the
    # ~1e-11 FM idle dip at the selected amplitude included.
    scan = cached_scan("fm2-idle", params, 8, t_m)
    fm_dip = FrequencyModulation(cycles=8, gamma=scan.gamma_opt)
    worst_rel = 0.0
    detail_parts = []
    for name, run in (
        ("fm-idle", SchemeRun(fm_dip, corner_scan=scan)),
        ("fm-idle-dip", SchemeRun(fm_dip)),
        ("dd-idle", SchemeRun(decoupling)),
    ):
        coarse, fine = (
            score_run(params, topology, run, Idle(t_m), 1, step=s).infidelities[0]
            for s in (step, step / 2.0)
        )
        rel = abs(coarse - fine) / max(abs(fine), 1e-300)
        worst_rel = max(worst_rel, rel)
        detail_parts.append(f"{name} {rel:.3e}")
    checks.append(
        (
            "step-halving",
            worst_rel < 0.01,
            f"rel change {', '.join(detail_parts)} (bound 1e-2)",
        )
    )

    # Star blocks against the dense 32-dimensional propagator at a coarse
    # step, and the block-propagated star idle against the static oracle.
    center_x = assemble_hamiltonian(params, STAR, decoupling, XGate(t_m, target=2))
    fm_idle = assemble_hamiltonian(params, STAR, fm_dip, Idle(t_m))
    worst = 0.0
    for h in (center_x, fm_idle):
        grid = TimeGrid.with_max_step(0.0, h.t_end, STAR_REDUCTION_STEP, h.breakpoints)
        worst = max(worst, float(np.abs(h.blocks().propagate(grid) - propagate(h, grid)).max()))
    h = assemble_hamiltonian(params, STAR, CrosstalkOnly(), Idle(t_m))
    u = h.blocks().propagate(TimeGrid.with_max_step(0.0, t_m, step, h.breakpoints))
    residual = float(np.abs(u - static_frame_reference(params, STAR, t_m)).max())
    checks.append(
        (
            "star-reduction",
            worst <= 1e-10 and residual <= 1e-8,
            f"blocks {center_x.blocks().layout}; max |U_blocks - U_dense| {worst:.3e} "
            f"(bound 1e-10); idle max |U - U_exact| {residual:.3e} (bound 1e-8)",
        )
    )

    # Global-phase invariance of the fidelity metric.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    drift = abs(
        gate_fidelity(np.exp(1j * 0.7318) * q, np.eye(4)) - gate_fidelity(q, np.eye(4))
    )
    checks.append(("phase-invariance", drift <= 1e-12, f"drift {drift:.3e} (bound 1e-12)"))

    # Zero coupling must give zero infidelity exactly.
    silent = SystemParams(delta=params.delta, j=0.0)
    residual = run_single_gate(silent, topology, CrosstalkOnly(), Idle(t_m), step=step)
    checks.append(("zero-coupling", residual <= 1e-12, f"infidelity {residual:.3e} (bound 1e-12)"))

    return checks


def cmd_verify(args) -> int:
    step = args.step if args.step is not None else DEFAULT_STEP
    checks = _verify_checks(step)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed (step_ns = {_fmt(step)})")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILURE


def cmd_list_presets(args) -> int:
    width = max(len(name) for name in PRESETS)
    # PRESETS is registered in figure order.
    for name in PRESETS:
        print(f"{name:<{width}}  {PRESETS[name].description}")
    return EXIT_OK


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage errors as ``ConfigError`` (exit code 1)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xtalksim",
        description="Exchange-crosstalk suppression experiments: simulate, optimize, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_sim = sub.add_parser("simulate", help="run a preset or configured experiment")
    p_sim.set_defaults(fn=cmd_simulate)
    p_sim.add_argument("--preset", metavar="NAME", help="named experiment (see list-presets)")
    p_opt = sub.add_parser("optimize-gamma", help="scan the modulation amplitude")
    p_opt.set_defaults(fn=cmd_optimize_gamma)
    p_ver = sub.add_parser("verify", help="run oracle and convergence checks")
    p_ver.set_defaults(fn=cmd_verify)
    p_list = sub.add_parser("list-presets", help="enumerate shipped experiment presets")
    p_list.set_defaults(fn=cmd_list_presets)

    # Each subcommand accepts only the flags it reads.
    for p in (p_sim, p_opt):
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
    for p in (p_sim, p_ver):
        p.add_argument(
            "--step",
            type=float,
            metavar="NS",
            help=f"longest integrator step in ns (default {_fmt(DEFAULT_STEP)})",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Flag spelling tolerated alongside the subcommand.
    argv = ["list-presets" if a == "--list-presets" else a for a in argv]
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "step", None) is not None and not 0 < args.step < math.inf:
            raise ConfigError(f"--step must be positive and finite, got {args.step}")
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entry(argv: Optional[Sequence[str]] = None) -> int:
    """Console entry point: ``main``, with an internal error printed as a
    traceback and reported as exit code 4."""
    try:
        return main(argv)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(entry())
