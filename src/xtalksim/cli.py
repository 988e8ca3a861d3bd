"""Command-line front end: structured config in, deterministic CSV out.

Four subcommands: ``simulate`` (presets or a JSON config), ``optimize-gamma``
(amplitude scan plus selected optimum), ``verify`` (oracle and convergence
checks), and ``list-presets``.  All frequencies in config files are cyclic
MHz, converted once at load; CSV rows carry full 17-digit precision so
identical configs produce byte-identical files.

Exit codes: 0 success, 1 invalid config or usage (argument errors too), 2
failed verification check, 3 amplitude scan found no minimum in range (the
scan is still written), 4 internal error.  A config is checked up front: the
CLI checks JSON types, and ``_checked`` reports values that the model objects
built from it reject, ``model.check_assembly`` without assembling.  Each key
is taken out of the config where it is read, and ``_done`` rejects whatever
no reader took, before any scan or propagation.  So an error raised later is
internal: ``main`` lets it propagate, and the console entry point ``entry``
prints its traceback and exits 4.  ``main`` reuses one parser per process and
builds nothing else per call.
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
    check_j_grid,
    gate_fidelity,
    run_preset,
    run_sequence,
    run_single_gate,
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
    check_assembly,
    cyclic_mhz_to_angular,
    static_frame_reference,
)
from xtalksim.operators import positive, unitarity_defect
from xtalksim.optimize import (
    DEFAULT_GRID_MAX_MHZ,
    DEFAULT_GRID_STEP_MHZ,
    check_window,
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


def _get(cfg: dict, key: str, default, kinds, what: str):
    """Take ``key`` out of ``cfg`` (``default`` when absent) and check its JSON type."""
    value = cfg.pop(key, default)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in (
        kinds if isinstance(kinds, tuple) else (kinds,)
    ):
        raise ConfigError(f"key {key!r} must be {what}, got {value!r}")
    return value


def _number(cfg: dict, key: str, default):
    """A number, as given; the model objects it builds check its range."""
    return _get(cfg, key, default, (int, float), "a number")


def _int(cfg: dict, key: str, default: int) -> int:
    """An integer; integer-valued floats such as 4.0 are accepted."""
    value = _get(cfg, key, default, (int, float), "an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
    return int(value)


def _done(cfg: dict, context: str) -> None:
    """Reject the keys that no reader took out of ``cfg``, naming them and the run."""
    if cfg:
        raise ConfigError(f"{context} does not read key(s) {', '.join(sorted(cfg))}")


def _checked(build, *args):
    """``build(*args)``, with its ``ValueError`` (a value the model rejects) as ``ConfigError``."""
    try:
        return build(*args)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _gate_time(cfg: dict, params: SystemParams) -> float:
    raw = cfg.pop("gate_time", "matched")
    if raw == "matched":
        return params.matched_time()
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return float(raw)
    raise ConfigError(f"key 'gate_time' must be a number or \"matched\", got {raw!r}")


# ---------------------------------------------------------------------------
# simulate


def _resolve_simulation(cfg: dict, step_override: Optional[float]):
    """Turn a config dict into (params, topology, run, gate, j_grid, reps, step, header),
    taking every key it reads out of ``cfg``."""
    topo_name = _get(cfg, "topology", "pair", str, "a string")
    if topo_name == "pair":
        topology = PAIR
    elif topo_name == "star":
        topology = STAR
    else:
        raise ConfigError(f"unknown topology {topo_name!r}; choose pair or star")

    delta_mhz = float(_checked(positive, "key 'delta_mhz'", _number(cfg, "delta_mhz", 50.0)))
    j_raw = _get(cfg, "j_mhz", 5.0, (int, float, list), "a number or list")
    j_grid: Optional[List[float]] = None
    if isinstance(j_raw, list):
        if not all(isinstance(j, (int, float)) and not isinstance(j, bool) for j in j_raw):
            raise ConfigError(f"key 'j_mhz' grid must hold numbers, got {j_raw}")
        j_grid = [float(j) for j in _checked(check_j_grid, j_raw)]
    j_scalar = float(j_raw) if j_grid is None else j_grid[0]

    params = _checked(SystemParams.from_mhz, delta_mhz, j_scalar)
    gate_time = _gate_time(cfg, params)

    gate_name = _get(cfg, "gate", "idle", str, "a string")
    gate_types = {"idle": Idle, "x": XGate, "parallel-xx": ParallelXX}
    if gate_name not in gate_types:
        raise ConfigError(f"unknown gate {gate_name!r}; choose idle, x or parallel-xx")
    target = (_int(cfg, "target", 1),) if gate_name == "x" else ()
    gate = _checked(gate_types[gate_name], gate_time, *target)

    scheme_name = _get(cfg, "scheme", "cd", str, "a string")
    if scheme_name not in ("cd", "fm", "dd", "dd-baseline"):
        raise ConfigError(
            f"unknown scheme {scheme_name!r}; choose cd, fm, dd or dd-baseline"
        )
    context = f"scheme {scheme_name} on gate {gate_name}"
    repetitions = _int(cfg, "repetitions", 1)
    # Read also under --step, which wins, so that an invalid value is reported.
    step = float(_checked(positive, "key 'step_ns'", _number(cfg, "step_ns", DEFAULT_STEP)))
    if step_override is not None:
        step = step_override
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
        cycles = _int(cfg, "cycles", 4)
        gamma_raw = cfg.pop("gamma_mhz", "optimize")
        scan = None
        if gamma_raw == "optimize":
            default_fn = "fm1" if not params.is_matched(gate_time) else (
                "fm2-idle" if gate_name == "idle" else "fm2-x"
            )
            functional = _get(cfg, "functional", default_fn, str, "a string")
            _done(cfg, context)  # before the scan, which a stray key must not cost
            _checked(check_window, functional, cycles, gate_time)
            # The scan's own errors are internal: they propagate to exit 4.
            scan = cached_scan(functional, params, cycles, gate_time)
            if not scan.found:
                raise ConfigError(
                    f"amplitude scan for {functional} N={cycles} found no minimum in range"
                )
            gamma = scan.gamma_opt
            header.append(f"functional = {functional}")
        elif isinstance(gamma_raw, (int, float)) and not isinstance(gamma_raw, bool):
            gamma = cyclic_mhz_to_angular(float(gamma_raw))
        else:
            raise ConfigError(
                f"key 'gamma_mhz' must be a number or \"optimize\", got {gamma_raw!r}"
            )
        if corner and scan is None:
            raise ConfigError("corner_average requires gamma_mhz = \"optimize\"")
        run = SchemeRun(
            _checked(FrequencyModulation, cycles, gamma, single_site),
            corner_scan=scan if corner else None,
        )
        header.append(
            f"scheme = fm (cycles = {cycles}, gamma_mhz = {_fmt(angular_to_cyclic_mhz(gamma))}, "
            f"single_site = {str(single_site).lower()}, corner_average = {str(corner).lower()})"
        )
    else:
        segments = _int(cfg, "segments", 4)
        # No default width for a zero count: the pulse-count check reports it first.
        width = float(_number(cfg, "width_ns", gate_time / (4.0 * segments) if segments else math.nan))
        run = SchemeRun(_checked(DynamicalDecoupling, segments, width, scheme_name == "dd"))
        header.append(
            f"scheme = {scheme_name} (segments = {segments}, width_ns = {_fmt(width)})"
        )

    _done(cfg, context)
    if j_grid is not None and repetitions > 1:
        raise ConfigError("choose a J grid or repeated gates, not both")
    # Check what the run builds, so that model validation fails here.
    _checked(check_assembly, topology, run.scheme, gate)
    _checked(_sequence_counts, gate, repetitions)

    j_text = _fmt(j_scalar) if j_grid is None else f"[{', '.join(_fmt(j) for j in j_grid)}]"
    header.append(f"j_mhz = {j_text}")
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
        series = run_sequence(params, topology, run, gate, repetitions, step=step)
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


def cmd_optimize_gamma(args) -> int:
    cfg = _load_config(args.config) if args.config else {}
    functional = _get(cfg, "functional", "fm2-idle", str, "a string")
    cycles = _int(cfg, "cycles", 4)
    delta_mhz = float(_checked(positive, "key 'delta_mhz'", _number(cfg, "delta_mhz", 50.0)))
    j_mhz = float(_checked(positive, "key 'j_mhz'", _number(cfg, "j_mhz", 5.0)))
    params = _checked(SystemParams.from_mhz, delta_mhz, j_mhz)
    gate_time = _gate_time(cfg, params)
    grid_step = float(_number(cfg, "grid_step_mhz", DEFAULT_GRID_STEP_MHZ))
    grid_max = float(_number(cfg, "grid_max_mhz", DEFAULT_GRID_MAX_MHZ))
    _done(cfg, "optimize-gamma")
    _checked(check_window, functional, cycles, gate_time)
    grid = _checked(default_gamma_grid, grid_step, grid_max)

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


# Step (ns) of the one-block star propagations in the star-reduction check.
STAR_REDUCTION_STEP = 0.02

# Steps (ns) of the integrator-order check, a halving apart.
ORDER_STEPS = (0.2, 0.1)


def _verify_checks(step: float) -> List[Tuple[str, bool, str]]:
    params = SystemParams.from_mhz(50.0, 5.0)
    topology = PAIR
    t_m = params.matched_time()
    decoupling = DynamicalDecoupling(segments=4, width=t_m / 16.0)
    checks: List[Tuple[str, bool, str]] = []
    # The bare-crosstalk idle over [0, T_M] (it has no tail) on each layout,
    # and its exact propagator from static diagonalization.
    bare = {
        name: (
            assemble_hamiltonian(params, layout, CrosstalkOnly(), Idle(t_m)),
            static_frame_reference(params, layout, t_m),
        )
        for name, layout in (("pair", PAIR), ("star", STAR))
    }

    # Propagator unitarity for a plain and a pulsed assembly.
    pulsed = assemble_hamiltonian(params, topology, decoupling, Idle(t_m))
    propagators = [h.blocks().propagate(0.0, h.t_end, step) for h in (bare["pair"][0], pulsed)]
    worst = max(unitarity_defect(u) for u in propagators)
    checks.append(("unitarity", worst <= 1e-10, f"max defect {worst:.3e} (bound 1e-10)"))

    # The plain one against static diagonalization.
    residual = float(np.abs(propagators[0] - bare["pair"][1]).max())
    detail = f"max |U - U_exact| {residual:.3e} (bound 1e-8)"
    checks.append(("idle-oracle", residual <= 1e-8, detail))

    # Triangle quadrature against the idle closed forms and their ratio.
    eps_cd = float(epsilon_fm2_idle(params, 4, np.zeros(1), t_m)[0])
    forms = dd_second_order_closed_forms(params)
    eps_dd = epsilon_dd2_numeric(params, 4, t_m)
    rel_cd = abs(eps_cd - forms.crosstalk_only) / forms.crosstalk_only
    rel_dd = abs(eps_dd - forms.decoupled) / forms.decoupled
    ratio = eps_dd / eps_cd
    rel_ratio = abs(ratio - forms.ratio) / forms.ratio
    ok = rel_cd <= 1e-6 and rel_dd <= 1e-6 and rel_ratio <= 1e-6
    detail = f"rel residuals idle {rel_cd:.3e}, decoupled {rel_dd:.3e}, ratio {rel_ratio:.3e}"
    checks.append(("closed-forms", ok, detail + " (bound 1e-6)"))

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
            run_sequence(params, topology, run, Idle(t_m), 1, step=s).infidelities[0]
            for s in (step, step / 2.0)
        )
        rel = abs(coarse - fine) / max(abs(fine), 1e-300)
        worst_rel = max(worst_rel, rel)
        detail_parts.append(f"{name} {rel:.3e}")
    detail = f"rel change {', '.join(detail_parts)} (bound 1e-2)"
    checks.append(("step-halving", worst_rel < 0.01, detail))

    # The Magnus step's order, at fixed steps whatever ``step`` says: the
    # bare-crosstalk idle's error against static diagonalization falls 16x
    # per halving at fourth order, and 4x with a wrong commutator weight.
    ratios, detail_parts = [], []
    for name, (h, exact) in bare.items():
        coarse, fine = (float(np.abs(h.blocks().propagate(0.0, t_m, s) - exact).max()) for s in ORDER_STEPS)
        ratios.append(coarse / fine)
        detail_parts.append(f"{name} {coarse:.3e} -> {fine:.3e} ({ratios[-1]:.1f}x)")
    detail = f"error at steps {ORDER_STEPS[0]}/{ORDER_STEPS[1]} ns {', '.join(detail_parts)} (bound 12x)"
    checks.append(("integrator-order", min(ratios) >= 12.0, detail))

    # Star blocks against the one 32-dimensional block of the same assembly
    # on the same coarse grid, and the block-propagated star idle against
    # the static oracle.
    center_x = assemble_hamiltonian(params, STAR, decoupling, XGate(t_m, target=2))
    fm_idle = assemble_hamiltonian(params, STAR, fm_dip, Idle(t_m))
    worst = 0.0
    for h in (center_x, fm_idle):
        u, one = (b.propagate(0.0, h.t_end, STAR_REDUCTION_STEP) for b in (h.blocks(), h.one_block()))
        worst = max(worst, float(np.abs(u - one).max()))
    h, exact = bare["star"]
    residual = float(np.abs(h.blocks().propagate(0.0, t_m, step) - exact).max())
    detail = (
        f"blocks {center_x.blocks().layout}; max |U_blocks - U_one_block| {worst:.3e} "
        f"(bound 1e-10); idle max |U - U_exact| {residual:.3e} (bound 1e-8)"
    )
    checks.append(("star-reduction", worst <= 1e-10 and residual <= 1e-8, detail))

    # Global-phase invariance of the fidelity metric.
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(a)
    drift = abs(gate_fidelity(np.exp(1j * 0.7318) * q, np.eye(4)) - gate_fidelity(q, np.eye(4)))
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
    p_sim.add_argument("--preset", metavar="NAME", help="named experiment (see list-presets)")
    p_opt = sub.add_parser("optimize-gamma", help="scan the modulation amplitude")
    p_ver = sub.add_parser("verify", help="run oracle and convergence checks")
    sub.add_parser("list-presets", help="enumerate shipped experiment presets")

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


#: The one parser of this process; ``main`` reuses it for every call.
PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Flag spelling tolerated alongside the subcommand.
    argv = ["list-presets" if a == "--list-presets" else a for a in argv]
    try:
        args = PARSER.parse_args(argv)
        if getattr(args, "step", None) is not None:
            _checked(positive, "--step", args.step)
        # Looked up per call, so a replaced ``cmd_*`` attribute takes effect.
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
