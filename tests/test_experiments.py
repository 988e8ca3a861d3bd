import dataclasses

import numpy as np
import pytest
from helpers import improvement_orders

from xtalksim import model
from xtalksim.experiments import (
    DEFAULT_STEP,
    FidelitySeries,
    cached_scan,
    PRESETS,
    cd_idle_reference_infidelity,
    gate_fidelity,
    run_preset,
    run_sequence,
    run_single_gate,
    scheme_label,
    score_run,
    sweep_j,
    SchemeRun,
)
from xtalksim.model import (
    AssembledHamiltonian,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    PAIR,
    STAR,
    Idle,
    ParallelXX,
    SymmetryBlocks,
    SystemParams,
    XGate,
    angular_to_cyclic_mhz,
    assemble_hamiltonian,
    cyclic_mhz_to_angular,
    target_unitary,
)
from xtalksim.operators import CHUNK, SIGMA_X, TimeGrid, embed, propagate
from xtalksim.pulses import SineEnvelopeDrive

PARAMS = SystemParams.from_mhz(50.0, 5.0)
T_M = PARAMS.matched_time()
DD = DynamicalDecoupling(segments=4, width=T_M / 16.0)


def count_calls(monkeypatch, owner, name, record=lambda *args: None):
    """Count calls of ``owner.name``, passing each call's arguments to ``record``."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestGateFidelity:
    def test_identity_is_one(self):
        assert gate_fidelity(np.eye(4), np.eye(4)) == pytest.approx(1.0)

    def test_global_phase_blind(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        base = gate_fidelity(q, np.eye(4))
        for phase in (0.3, 1.7, np.pi):
            shifted = gate_fidelity(np.exp(1j * phase) * q, np.eye(4))
            assert abs(shifted - base) <= 1e-12

    def test_orthogonal_gate_scores_zero(self):
        x1 = embed(SIGMA_X, 1, 2)
        assert gate_fidelity(x1, np.eye(4)) == pytest.approx(0.0, abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gate_fidelity(np.eye(4), np.eye(8))


class TestImprovementOrders:
    def test_ratio_in_decades(self):
        assert improvement_orders(1e-3, 1e-5) == pytest.approx(2.0)

    def test_degenerate_inputs(self):
        assert improvement_orders(0.0, 1e-5) == 0.0
        assert improvement_orders(1e-3, 0.0) == np.inf


class TestFidelitySeries:
    def test_negative_noise_clamps_to_zero(self):
        s = FidelitySeries("CD", np.array([1.0]), np.array([-1e-12]))
        assert s.infidelities[0] == 0.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FidelitySeries("CD", np.array([1.0]), np.array([1.1]))
        with pytest.raises(ValueError):
            FidelitySeries("CD", np.array([1.0]), np.array([np.nan]))
        with pytest.raises(ValueError):
            FidelitySeries("CD", np.array([1.0, 2.0]), np.array([0.1]))


class TestSingleGate:
    def test_zero_coupling_is_exact(self):
        silent = SystemParams(delta=PARAMS.delta, j=0.0)
        assert run_single_gate(silent, PAIR, CrosstalkOnly(), Idle(T_M), step=0.01) <= 1e-12
        assert (
            run_single_gate(silent, PAIR, CrosstalkOnly(), XGate(T_M), step=0.01) <= 1e-10
        )

    def test_idle_matches_static_oracle(self):
        propagated = run_single_gate(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M), step=0.002)
        exact = cd_idle_reference_infidelity(PARAMS, PAIR, T_M)
        assert propagated == pytest.approx(exact, abs=1e-8)

    def test_star_idle_matches_static_oracle(self):
        propagated = run_single_gate(PARAMS, STAR, CrosstalkOnly(), Idle(T_M), step=0.002)
        exact = cd_idle_reference_infidelity(PARAMS, STAR, T_M)
        assert propagated == pytest.approx(exact, abs=1e-8)

    def test_scheme_labels(self):
        assert scheme_label(CrosstalkOnly()) == "CD"
        assert scheme_label(FrequencyModulation(cycles=6, gamma=1.0)) == "FM-N6"
        assert scheme_label(DynamicalDecoupling(4, 1.25)) == "DD-Z4"
        assert scheme_label(DynamicalDecoupling(4, 1.25, pulses=False)) == "CD"


class TestStepConvergence:
    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    @pytest.mark.parametrize("cycles", [4, 8])
    def test_fm_idle_dip_converged(self, topology, cycles):
        # The ~1e-11 dip at the selected amplitude, a single point without
        # corner averaging, must not drift as the step shrinks 8x.
        gamma = cached_scan("fm2-idle", PARAMS, cycles, T_M).gamma_opt
        scheme = FrequencyModulation(cycles=cycles, gamma=gamma)
        coarse, fine = (
            run_single_gate(PARAMS, topology, scheme, Idle(T_M), step=s) for s in (0.002, 0.00025)
        )
        assert abs(coarse - fine) <= 1e-3 * fine

    def test_grid_follows_waveform_kinks(self):
        # At 0.02 ns the production grid must sit on the pulse and burst
        # edges: a uniform grid of the same step lands far from the
        # converged value.
        dd = DynamicalDecoupling(segments=4, width=T_M / 16.0)
        gate = XGate(T_M, target=1)
        ref = run_single_gate(PARAMS, PAIR, dd, gate, step=0.02 / 16)
        aligned = run_single_gate(PARAMS, PAIR, dd, gate, step=0.02)
        h = assemble_hamiltonian(PARAMS, PAIR, dd, gate)
        u = h.blocks().propagate(TimeGrid.with_max_step(0.0, h.t_end, 0.02))[0]
        unaligned = 1.0 - gate_fidelity(u, target_unitary(gate, PAIR))
        assert 100.0 * abs(aligned - ref) <= abs(unaligned - ref)


class TestSequences:
    def brute_force_infidelity(self, scheme, gate, repetitions, step, aligned=False):
        h = assemble_hamiltonian(PARAMS, PAIR, scheme, gate, repetitions=repetitions)
        breakpoints = h.breakpoints if aligned else ()
        u = propagate(h, TimeGrid.with_max_step(0.0, h.t_end, step, breakpoints))
        ideal = target_unitary(gate, PAIR, repetitions=repetitions)
        return max(0.0, 1.0 - gate_fidelity(u, ideal))

    def test_single_repetition_equals_single_gate(self):
        # A one-gate sequence (block propagation) against one uninterrupted
        # dense propagation of the same gate on the same aligned grid.
        for topology, scheme, gate in (
            (PAIR, CrosstalkOnly(), Idle(T_M)),
            (PAIR, DynamicalDecoupling(segments=4, width=1.25), XGate(T_M, target=1)),
            (STAR, FrequencyModulation(cycles=8, gamma=2.0, single_site=True), XGate(T_M, 2)),
        ):
            series = run_sequence(PARAMS, topology, scheme, gate, 1, step=0.02)
            h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
            u = propagate(h, TimeGrid.with_max_step(0.0, h.t_end, 0.02, h.breakpoints))
            dense = 1.0 - gate_fidelity(u, target_unitary(gate, topology))
            assert series.counts.tolist() == [1]
            assert series.infidelities[0] == pytest.approx(dense, abs=1e-12)

    def test_matched_window_reuse_agrees_with_direct(self):
        # The periodic fast path must match one uninterrupted propagation.
        series = run_sequence(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M), 3, step=0.01)
        direct = self.brute_force_infidelity(CrosstalkOnly(), Idle(T_M), 3, 0.01)
        assert series.infidelities[-1] == pytest.approx(direct, abs=1e-11)

    def test_unmatched_general_path_agrees_with_direct(self):
        series = run_sequence(PARAMS, PAIR, CrosstalkOnly(), Idle(30.0), 3, step=0.01)
        direct = self.brute_force_infidelity(CrosstalkOnly(), Idle(30.0), 3, 0.01)
        assert series.infidelities[-1] == pytest.approx(direct, abs=1e-11)
        assert series.abscissa[-1] == pytest.approx(90.0)

    def test_pulsed_tail_agrees_with_direct(self):
        # Decoupled runs extend half a pulse width past the last gate.  A
        # step dividing both the gate time and the tail aligns the window
        # grids with the uninterrupted one, so the products match exactly.
        dd = DynamicalDecoupling(segments=4, width=1.25)
        series = run_sequence(PARAMS, PAIR, dd, Idle(T_M), 3, step=0.0125)
        direct = self.brute_force_infidelity(dd, Idle(T_M), 3, 0.0125)
        assert series.infidelities[-1] == pytest.approx(direct, abs=1e-11)
        assert series.abscissa[-1] == pytest.approx(3 * T_M + 0.625)

    def test_pulsed_tail_at_default_step_agrees_with_direct(self):
        # At 0.02 ns the window grids no longer align with the uninterrupted
        # one, but both sit on every pulse edge.
        dd = DynamicalDecoupling(segments=4, width=1.25)
        series = run_sequence(PARAMS, PAIR, dd, Idle(T_M), 3)
        direct = self.brute_force_infidelity(dd, Idle(T_M), 3, DEFAULT_STEP, aligned=True)
        assert series.infidelities[-1] == pytest.approx(direct, abs=1e-11)

    def test_periodic_decoupled_run_propagates_steady_window_once(self, monkeypatch):
        # The first window is the steady window [tail, T + tail] after the
        # head [0, tail], not a second propagation over [0, T + tail].
        steps = count_calls(monkeypatch, SymmetryBlocks, "propagate", lambda _, g: g.n_steps)
        run_sequence(PARAMS, STAR, DD, Idle(T_M), 3)
        assert sum(steps) == 1004 + 32
        steps.clear()
        run_sequence(PARAMS, STAR, DD, Idle(T_M), 1)
        assert steps == [1035]

    def test_idle_sequences_count_every_gate(self):
        series = run_sequence(PARAMS, PAIR, CrosstalkOnly(), Idle(T_M), 4, step=0.05)
        assert series.counts.tolist() == [1, 2, 3, 4]
        # Bare crosstalk compounds: longer runs cannot improve.
        assert np.all(np.diff(series.infidelities) > 0.0)

    def test_driven_sequences_use_odd_counts(self):
        series = run_sequence(PARAMS, PAIR, CrosstalkOnly(), XGate(T_M), 5, step=0.05)
        assert series.counts.tolist() == [1, 3, 5]
        with pytest.raises(ValueError, match="odd"):
            run_sequence(PARAMS, PAIR, CrosstalkOnly(), XGate(T_M), 4, step=0.05)


class TestScoreRun:
    def test_corner_average_is_mean_of_flanking_sequences(self):
        scan = cached_scan("fm2-idle", PARAMS, 8, T_M)
        run = SchemeRun(FrequencyModulation(cycles=8, gamma=scan.gamma_opt), corner_scan=scan)
        assert run.label == "FM-N8"
        flank_gammas = (scan.gamma_opt - scan.grid_step, scan.gamma_opt + scan.grid_step)
        for repetitions in (1, 20):
            scored = score_run(PARAMS, PAIR, run, Idle(T_M), repetitions)
            lower, upper = (
                run_sequence(
                    PARAMS, PAIR, FrequencyModulation(cycles=8, gamma=g), Idle(T_M), repetitions
                )
                for g in flank_gammas
            )
            assert scored.scheme == "FM-N8"
            assert scored.counts.tolist() == lower.counts.tolist()
            np.testing.assert_allclose(
                scored.infidelities,
                0.5 * (lower.infidelities + upper.infidelities),
                rtol=0.0,
                atol=1e-15,
            )


SWEEP_GATES = [
    pytest.param(PAIR, Idle(T_M), id="pair-idle"),
    pytest.param(PAIR, XGate(T_M, target=1), id="pair-x"),
    pytest.param(PAIR, ParallelXX(T_M), id="pair-parallel-xx"),
    pytest.param(STAR, Idle(T_M), id="star-idle"),
    pytest.param(STAR, XGate(T_M, target=2), id="star-x-center"),
]


def sweep_run(name, topology, gate):
    if name == "cd":
        return SchemeRun(CrosstalkOnly())
    if name in ("dd", "dd-baseline"):
        return SchemeRun(dataclasses.replace(DD, pulses=name == "dd"))
    scan = cached_scan("fm2-idle" if isinstance(gate, Idle) else "fm2-x", PARAMS, 8, T_M)
    single_site = isinstance(gate, XGate) and gate.target == topology.center
    scheme = FrequencyModulation(cycles=8, gamma=scan.gamma_opt, single_site=single_site)
    return SchemeRun(scheme, corner_scan=scan if name == "fm-corner" else None)


class TestSweepJ:
    def runs(self):
        return [SchemeRun(CrosstalkOnly())]

    @pytest.mark.parametrize("scheme", ["cd", "fm", "fm-corner", "dd", "dd-baseline"])
    @pytest.mark.parametrize("topology, gate", SWEEP_GATES)
    def test_stack_matches_separate_runs(self, topology, gate, scheme):
        run = sweep_run(scheme, topology, gate)
        j_grid = (1.0, 4.0, 9.5)
        couplings = tuple(cyclic_mhz_to_angular(j) for j in j_grid)
        separate = [dataclasses.replace(PARAMS, j=j) for j in couplings]

        h = assemble_hamiltonian(PARAMS, topology, run.scheme, gate)
        grid = TimeGrid.with_max_step(0.0, h.t_end, DEFAULT_STEP, h.breakpoints)
        # The stack takes more chunks than a single coupling.
        assert grid.n_steps > CHUNK // len(couplings)
        stacked = dataclasses.replace(h, couplings=couplings).blocks().propagate(grid)
        for u, p in zip(stacked, separate):
            single = assemble_hamiltonian(p, topology, run.scheme, gate).blocks().propagate(grid)
            assert np.abs(u - single[0]).max() <= 1e-14

        series = sweep_j(PARAMS, topology, [run], gate, j_grid)[0]
        expect = [score_run(p, topology, run, gate, 1).infidelities[0] for p in separate]
        assert series.scheme == run.label
        assert series.abscissa.tolist() == list(j_grid)
        # 1 - F resolves infidelities no finer than the double spacing near 1.
        np.testing.assert_allclose(
            series.infidelities, expect, rtol=1e-12, atol=2 * np.finfo(float).eps
        )

    def test_one_analysis_and_propagation_per_run(self, monkeypatch):
        # A run scores the whole grid as one coupling stack; a corner-averaged
        # run takes one stack per corner amplitude.
        analyses = count_calls(monkeypatch, AssembledHamiltonian, "blocks")
        propagations = count_calls(monkeypatch, SymmetryBlocks, "propagate")
        chunks = count_calls(monkeypatch, model, "advance", lambda _, g: g.shape[:2])
        for scheme, calls in (("cd", 1), ("dd", 1), ("fm-corner", 2)):
            analyses.clear()
            propagations.clear()
            sweep_j(PARAMS, PAIR, [sweep_run(scheme, PAIR, Idle(T_M))], Idle(T_M), range(1, 6))
            assert (len(analyses), len(propagations)) == (calls, calls)
        # No stack outgrows a single-coupling chunk.
        assert {c for _, c in chunks} == {5}
        assert max(n * c for n, c in chunks) <= CHUNK

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sweep_j(PARAMS, PAIR, self.runs(), Idle(T_M), [], step=0.05)
        with pytest.raises(ValueError):
            sweep_j(PARAMS, PAIR, self.runs(), Idle(T_M), [5.0, -1.0], step=0.05)

    def test_infidelity_grows_with_coupling(self):
        series = sweep_j(PARAMS, PAIR, self.runs(), Idle(T_M), [1.0, 5.0, 10.0], step=0.05)[0]
        assert np.all(np.diff(series.infidelities) > 0.0)


class TestPresets:
    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            run_preset("fig99")

    def test_catalog_is_complete(self):
        names = {
            "fig2", "fig3b", "fig3c", "fig4a", "fig4b", "fig4c", "fig5", "fig6",
            "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "fig16", "fig17", "fig18",
        }
        assert set(PRESETS) == names

    def test_rows_are_canonically_sorted(self):
        rows = run_preset("fig2", step=0.2)
        assert rows == sorted(rows, key=lambda r: (r[0], r[1], r[2]))
        series = {r[0] for r in rows}
        assert series == {"vs_gate_time"}
        assert all(r[1] == "CD" for r in rows)
        assert len(rows) == 117

    def test_fig15_waveform_is_the_simulated_drive(self):
        # Qubit 2 is the modulated qubit: its operation-frame drive is the
        # quadrature pair envelope * (cos 2 alpha, sin 2 alpha).
        rows = run_preset("fig15", step=0.2)
        wave = {}
        for series, scheme, t, v in rows:
            if series == "waveform":
                wave.setdefault(scheme, []).append((t, v))
        t, x2 = np.array(wave["X2-drive"]).T
        _, y2 = np.array(wave["Y2-drive"]).T
        envelope = angular_to_cyclic_mhz(SineEnvelopeDrive.x_gate(T_M).sample(t))
        assert np.allclose(x2**2 + y2**2, envelope**2, rtol=1e-12, atol=1e-9)
        assert np.abs(y2).max() > 0.1 * envelope.max()

    def test_waveform_preset_shape(self):
        rows = run_preset("fig4a", step=0.2)
        channels = {r[1] for r in rows if r[0] == "waveform"}
        assert "X1-drive" in channels
        assert "Z2-modulation" in channels
