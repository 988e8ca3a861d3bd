"""Acceptance checklist: every headline quantitative claim, one line each.

Each criterion is a test printing one PASS/FAIL line per component (run
with ``pytest -s`` or read captured output) and failing if any component
misses its stated tolerance.  Heavy intermediates are cached at module
scope so the full file runs in a few minutes.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np
import pytest
from helpers import improvement_orders

from xtalksim.experiments import (
    DEFAULT_STEP,
    SchemeRun,
    cached_scan,
    cd_idle_reference_infidelity,
    gate_fidelity,
    run_preset,
    run_single_gate,
    run_sequence,
)
from xtalksim.magnus import (
    epsilon_dd1,
    epsilon_dd2_numeric,
    epsilon_fm1,
    epsilon_fm2_idle,
)
from xtalksim.model import (
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    PAIR,
    STAR,
    Idle,
    ParallelXX,
    SystemParams,
    XGate,
    assemble_hamiltonian,
    static_frame_reference,
)
from xtalksim.operators import unitarity_defect

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
DD = DynamicalDecoupling(segments=4, width=T_M / 16.0)  # w = tau/4
STEP = DEFAULT_STEP
GRID_STEP_MHZ = 1.59


def check(results, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    results.append((name, bool(ok)))


def finish(results):
    bad = [name for name, ok in results if not ok]
    assert not bad, f"failed components: {', '.join(bad)}"


def gate_by_key(key):
    return {
        "idle": Idle(T_M),
        "x1": XGate(T_M, target=1),
        "x2": XGate(T_M, target=2),
        "xx": ParallelXX(T_M),
    }[key]


def topo_by_key(key):
    return PAIR if key == "pair" else STAR


@lru_cache(maxsize=None)
def scheme_run(kind, cycles=0, corner=False, single_site=False):
    """Build a scheme run; FM amplitudes come from the matching scan."""
    if kind == "cd":
        return SchemeRun(CrosstalkOnly())
    if kind == "dd":
        return SchemeRun(DD)
    if kind == "dd-base":
        return SchemeRun(dataclasses.replace(DD, pulses=False))
    functional = "fm2-idle" if kind == "fm-idle" else "fm2-x"
    scan = cached_scan(functional, PARAMS, cycles, T_M)
    assert scan.found
    return SchemeRun(
        FrequencyModulation(cycles=cycles, gamma=scan.gamma_opt, single_site=single_site),
        corner_scan=scan if corner else None,
    )


@lru_cache(maxsize=None)
def single(topo_key, run_key, gate_key, step=STEP):
    run = scheme_run(*run_key) if isinstance(run_key, tuple) else scheme_run(run_key)
    series = run_sequence(PARAMS, topo_by_key(topo_key), run, gate_by_key(gate_key), 1, step=step)
    return float(series.infidelities[0])


@lru_cache(maxsize=None)
def sequence_last(topo_key, run_key, gate_key, repetitions, step=STEP):
    run = scheme_run(*run_key) if isinstance(run_key, tuple) else scheme_run(run_key)
    series = run_sequence(
        PARAMS, topo_by_key(topo_key), run, gate_by_key(gate_key), repetitions, step=step
    )
    return float(series.infidelities[-1])


def orders_single(topo_key, ref_key, run_key, gate_key):
    return improvement_orders(
        single(topo_key, ref_key, gate_key), single(topo_key, run_key, gate_key)
    )


def orders_sequence(topo_key, ref_key, run_key, gate_key, repetitions):
    return improvement_orders(
        sequence_last(topo_key, ref_key, gate_key, repetitions),
        sequence_last(topo_key, run_key, gate_key, repetitions),
    )


class TestCriterion1MatchedTimeStructure:
    def test_idle_extrema_on_half_ns_grid(self):
        # Bare-crosstalk idle infidelity over 2..60 ns sampled every 0.5 ns:
        # minima expected at 20/40/60 ns and maxima at 10/30/50 ns, each
        # within one grid step.
        rows = run_preset("fig2", step=STEP)
        ts = np.array([r[2] for r in rows])
        vals = np.array([r[3] for r in rows])
        order = np.argsort(ts)
        ts, vals = ts[order], vals[order]
        interior = range(1, ts.size - 1)
        minima = [ts[i] for i in interior if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]]
        maxima = [ts[i] for i in interior if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]]
        results = []
        for t0 in (20.0, 40.0, 60.0):
            dist = min(abs(m - t0) for m in minima)
            check(
                results,
                f"criterion-1 minimum near {t0:g} ns",
                dist <= 0.5 + 1e-9,
                f"nearest sampled minimum {dist:.1f} ns away (allowed 0.5)",
            )
        for t0 in (10.0, 30.0, 50.0):
            dist = min(abs(m - t0) for m in maxima)
            check(
                results,
                f"criterion-1 maximum near {t0:g} ns",
                dist <= 0.5 + 1e-9,
                f"nearest sampled maximum {dist:.1f} ns away (allowed 0.5)",
            )
        finish(results)


class TestCriterion2AmplitudeTables:
    TABLES = [
        ("fm2-idle", T_M, {4: 201.0, 6: 321.0, 8: 442.0}),
        ("fm2-x", T_M, {4: 244.0, 6: 363.0, 8: 482.0}),
        ("fm1", 30.0, {4: 168.2, 6: 243.8, 8: 322.9}),
    ]

    def test_optimal_amplitudes(self):
        results = []
        for functional, t_gate, table in self.TABLES:
            for cycles, expect in table.items():
                scan = cached_scan(functional, PARAMS, cycles, t_gate)
                got = scan.gamma_opt_mhz if scan.found else math.nan
                ok = scan.found and abs(got - expect) <= GRID_STEP_MHZ
                check(
                    results,
                    f"criterion-2 {functional} N={cycles}",
                    ok,
                    f"gamma_opt/2pi = {got:.2f} MHz, expected {expect} "
                    f"+- {GRID_STEP_MHZ} MHz",
                )
        finish(results)


class TestCriterion3ModulationImprovements:
    def test_matched_time_gains(self):
        results = []
        cases = [
            ("idle N=4", orders_single("pair", "cd", ("fm-idle", 4, True), "idle"), 4.0),
            ("idle N=8", orders_single("pair", "cd", ("fm-idle", 8, True), "idle"), 5.5),
            ("single X", orders_single("pair", "cd", ("fm-x", 4), "x1"), 2.0),
            ("parallel X1X2", orders_single("pair", "cd", ("fm-x", 4), "xx"), 3.0),
            ("20 idle gates", orders_sequence("pair", "cd", ("fm-idle", 4, True), "idle", 20), 4.0),
            ("21 X gates", orders_sequence("pair", "cd", ("fm-x", 4), "x1", 21), 2.0),
        ]
        for name, got, bound in cases:
            check(
                results,
                f"criterion-3 {name}",
                got >= bound,
                f"{got:.2f} orders (needs >= {bound})",
            )
        finish(results)


class TestCriterion4DecouplingImprovements:
    def test_pulse_train_gains(self):
        results = []
        idle = orders_single("pair", "dd-base", "dd", "idle")
        check(results, "criterion-4 idle", idle >= 0.8, f"{idle:.2f} orders (needs >= 0.8)")
        x = orders_single("pair", "dd-base", "dd", "x1")
        check(
            results,
            "criterion-4 single X",
            abs(x - 0.37) <= 0.12,
            f"{x:.2f} orders (expected 0.37 +- 0.12)",
        )
        seq_idle = orders_sequence("pair", "dd-base", "dd", "idle", 20)
        check(
            results,
            "criterion-4 20 idle gates",
            seq_idle >= 2.0,
            f"{seq_idle:.2f} orders (needs >= 2.0)",
        )
        seq_x = orders_sequence("pair", "dd-base", "dd", "x1", 21)
        check(
            results,
            "criterion-4 21 X gates",
            seq_x >= 1.0,
            f"{seq_x:.2f} orders (needs >= 1.0)",
        )
        xx = orders_single("pair", "dd-base", "dd", "xx")
        check(
            results,
            "criterion-4 parallel X1X2",
            abs(xx - 1.2) <= 0.3,
            f"{xx:.2f} orders (expected 1.2 +- 0.3)",
        )
        late = orders_sequence("pair", "dd-base", "dd", "xx", 21)
        check(
            results,
            "criterion-4 parallel late sequence",
            abs(late - 0.5) <= 0.3,
            f"{late:.2f} orders (expected about 0.5, +- 0.3)",
        )
        finish(results)


class TestCriterion5FiveQubit:
    def test_star_layout_gains(self):
        results = []
        fm_idle = orders_single("star", "cd", ("fm-idle", 4, True), "idle")
        check(
            results, "criterion-5 FM idle", fm_idle >= 4.0, f"{fm_idle:.2f} orders (needs >= 4.0)"
        )
        fm_x2 = orders_single("star", "cd", ("fm-x", 4, False, True), "x2")
        check(
            results, "criterion-5 FM X2", fm_x2 >= 2.0, f"{fm_x2:.2f} orders (needs >= 2.0)"
        )
        dd_idle = orders_single("star", "dd-base", "dd", "idle")
        check(
            results, "criterion-5 DD idle", dd_idle > 1.0, f"{dd_idle:.2f} orders (needs > 1.0)"
        )
        dd_x2 = orders_single("star", "dd-base", "dd", "x2")
        check(
            results,
            "criterion-5 DD X2",
            abs(dd_x2 - 0.37) <= 0.12,
            f"{dd_x2:.2f} orders (expected 0.37 +- 0.12)",
        )
        # Repeated-operation claims, each within half an order.
        fm_seq_idle = orders_sequence("star", "cd", ("fm-idle", 4, True), "idle", 20)
        check(
            results,
            "criterion-5 FM 20 idle gates",
            abs(fm_seq_idle - 4.0) <= 0.5,
            f"{fm_seq_idle:.2f} orders (expected about 4.0, +- 0.5)",
        )
        fm_seq_x2 = orders_sequence("star", "cd", ("fm-x", 4, False, True), "x2", 21)
        check(
            results,
            "criterion-5 FM 21 X2 gates",
            fm_seq_x2 >= 1.5,
            f"{fm_seq_x2:.2f} orders (needs >= 1.5 for a > 2 claim within 0.5)",
        )
        dd_seq_idle = orders_sequence("star", "dd-base", "dd", "idle", 20)
        check(
            results,
            "criterion-5 DD 20 idle gates",
            dd_seq_idle >= 0.5,
            f"{dd_seq_idle:.2f} orders (needs >= 0.5 for a > 1 claim within 0.5)",
        )
        dd_seq_x2 = orders_sequence("star", "dd-base", "dd", "x2", 21)
        check(
            results,
            "criterion-5 DD 21 X2 gates",
            dd_seq_x2 >= 0.5,
            f"{dd_seq_x2:.2f} orders (needs >= 0.5 for a > 1 claim within 0.5)",
        )
        finish(results)


class TestCriterion6ClosedFormOracles:
    def test_triangle_quadrature_against_closed_forms(self):
        results = []
        expect_cd = 2.0 * abs(PARAMS.j**2 / (2.0 * PARAMS.delta))
        got_cd = float(epsilon_fm2_idle(PARAMS, 4, np.zeros(1), T_M)[0])
        rel = abs(got_cd - expect_cd) / expect_cd
        check(
            results,
            "criterion-6 idle kernel",
            rel <= 1e-6,
            f"rel residual {rel:.2e} (allowed 1e-6)",
        )
        expect_dd = 2.0 * abs((math.pi - 4.0) / (2.0 * math.pi) * PARAMS.j**2 / PARAMS.delta)
        got_dd = epsilon_dd2_numeric(PARAMS, 4, T_M)
        rel = abs(got_dd - expect_dd) / expect_dd
        check(
            results,
            "criterion-6 sign-flipped kernel",
            rel <= 1e-6,
            f"rel residual {rel:.2e} (allowed 1e-6)",
        )
        ratio = got_dd / got_cd
        expect_ratio = abs((math.pi - 4.0) / math.pi)
        rel = abs(ratio - expect_ratio) / expect_ratio
        check(
            results,
            "criterion-6 suppression ratio",
            rel <= 1e-6,
            f"{ratio:.8f} vs {expect_ratio:.8f}, rel residual {rel:.2e}",
        )
        finish(results)


class TestCriterion7ExactnessProperties:
    def test_first_order_zeros_and_idle_oracle(self):
        results = []
        for segments in (4, 6, 8):
            val = epsilon_dd1(PARAMS, segments, T_M)
            check(
                results,
                f"criterion-7 pulse-train first order S={segments}",
                val <= 1e-14 * PARAMS.j,
                f"{val:.2e} rad/ns (allowed 1e-14 J)",
            )
        val = float(epsilon_fm1(PARAMS, 4, np.zeros(1), T_M)[0])
        check(
            results,
            "criterion-7 matched-time first order",
            val <= 1e-12 * PARAMS.j,
            f"{val:.2e} rad/ns (allowed 1e-12 J)",
        )
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M))
        u = h.blocks().propagate(0.0, T_M, STEP)[0]
        residual = float(np.abs(u - static_frame_reference(PARAMS, PAIR, T_M)).max())
        check(
            results,
            "criterion-7 idle propagator oracle",
            residual <= 1e-8,
            f"max |U - U_exact| {residual:.2e} (allowed 1e-8)",
        )
        finish(results)


class TestCriterion8NumericalHygiene:
    def test_unitarity_convergence_and_phase(self):
        results = []
        worst = 0.0
        battery = [
            (PARAMS, PAIR, CrosstalkOnly(), Idle(T_M)),
            (PARAMS, PAIR, FrequencyModulation(cycles=8, gamma=2.7), Idle(T_M)),
            (PARAMS, PAIR, DD, XGate(T_M)),
            (PARAMS, STAR, DD, XGate(T_M, target=2)),
        ]
        for params, topo, scheme, gate in battery:
            h = assemble_hamiltonian(params, topo, scheme, gate)
            u = h.blocks().propagate(0.0, h.t_end, STEP)[0]
            worst = max(worst, unitarity_defect(u))
        check(
            results,
            "criterion-8 unitarity",
            worst <= 1e-10,
            f"max defect {worst:.2e} (allowed 1e-10)",
        )

        halved = [
            ("CD idle", lambda s: single("pair", "cd", "idle", s)),
            ("FM idle N=8", lambda s: single("pair", ("fm-idle", 8, True), "idle", s)),
            ("DD idle", lambda s: single("pair", "dd", "idle", s)),
            ("five-qubit FM idle", lambda s: single("star", ("fm-idle", 4, True), "idle", s)),
        ]
        for name, evaluate in halved:
            coarse, fine = evaluate(STEP), evaluate(STEP / 2.0)
            rel = abs(coarse - fine) / max(abs(fine), 1e-300)
            check(
                results,
                f"criterion-8 step halving, {name}",
                rel < 0.01,
                f"rel change {rel:.2e} (allowed 1e-2)",
            )

        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        drift = abs(
            gate_fidelity(np.exp(0.9j) * q, np.eye(4)) - gate_fidelity(q, np.eye(4))
        )
        check(
            results,
            "criterion-8 phase invariance",
            drift <= 1e-12,
            f"drift {drift:.2e} (allowed 1e-12)",
        )
        finish(results)
