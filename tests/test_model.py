import dataclasses

import numpy as np
import pytest
from helpers import coupling, hermiticity_defect

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
    target_unitary,
)
from xtalksim.operators import (
    SIGMA_X,
    SIGMA_Z,
    TimeGrid,
    embed,
    expm_hamiltonian,
    kron,
    propagate,
)

PARAMS = SystemParams.from_mhz(50.0, 5.0)


def window_propagator(h, step=0.002):
    return propagate(h, TimeGrid.with_max_step(0.0, h.t_end, step))


class TestUnitsAndParams:
    def test_mhz_round_trip(self):
        assert angular_to_cyclic_mhz(cyclic_mhz_to_angular(50.0)) == pytest.approx(50.0)
        assert cyclic_mhz_to_angular(50.0) == pytest.approx(2.0 * np.pi * 0.05)

    def test_characteristic_times(self):
        assert PARAMS.matched_time() == pytest.approx(20.0)
        assert PARAMS.matched_time(3) == pytest.approx(60.0)
        assert PARAMS.t_delta == pytest.approx(10.0)
        assert PARAMS.is_matched(20.0)
        assert not PARAMS.is_matched(30.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(delta=0.0, j=0.1)
        with pytest.raises(ValueError):
            SystemParams(delta=1.0, j=-0.1)
        # Zero coupling and negative detuning are both physical.
        SystemParams(delta=-1.0, j=0.0)


class TestExchangeInteraction:
    def test_detuning_period_flips_sign(self):
        # The coupling phase advances by pi over t_delta and by 2 pi over
        # the matched time, so H(t_delta) = -H(0) and H(t_m) = H(0).
        h0 = coupling(PARAMS, PAIR, 0.0)
        assert np.allclose(
            coupling(PARAMS, PAIR, PARAMS.t_delta), -h0, atol=1e-12
        )
        assert np.allclose(
            coupling(PARAMS, PAIR, PARAMS.matched_time()), h0, atol=1e-12
        )

    def test_flip_flop_structure(self):
        h0 = coupling(PARAMS, PAIR, 0.0)
        # Excitation-conserving: |00> and |11> are untouched, the single
        # excitation pair is coupled at strength J.
        evals = np.sort(np.linalg.eigvalsh(h0))
        assert np.allclose(evals, [-PARAMS.j, 0.0, 0.0, PARAMS.j], atol=1e-12)
        assert hermiticity_defect(h0) < 1e-14

    def test_star_couples_center_to_each_spoke(self):
        from xtalksim.operators import SIGMA_MINUS, SIGMA_PLUS

        h0 = coupling(PARAMS, STAR, 0.0)
        assert h0.shape == (32, 32)
        assert hermiticity_defect(h0) < 1e-14
        expect = np.zeros((32, 32), dtype=complex)
        for a, b in STAR.edges:
            up_a = embed(SIGMA_PLUS, a, 5)
            dn_b = embed(SIGMA_MINUS, b, 5)
            expect += PARAMS.j * (up_a @ dn_b + dn_b.conj().T @ up_a.conj().T)
        assert np.abs(h0 - expect).max() < 1e-14


SCHEMES = [
    CrosstalkOnly(),
    FrequencyModulation(cycles=4, gamma=1.26),
    FrequencyModulation(cycles=6, gamma=2.0, single_site=True),
    DynamicalDecoupling(segments=4, width=1.25),
]


class TestAssembly:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: type(s).__name__)
    def test_hermitian_at_random_times(self, scheme):
        gate = (
            XGate(20.0, target=2)
            if getattr(scheme, "single_site", False)
            else Idle(20.0)
        )
        h = assemble_hamiltonian(PARAMS, PAIR, scheme, gate)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, h.t_end, size=8):
            assert hermiticity_defect(h(float(t))) < 1e-12

    def test_coupling_is_a_coefficient(self):
        # Term matrices are at unit coupling; J scales the exchange
        # coefficients, one row per coupling of the stack.
        h = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), XGate(20.0))
        assert h.couplings == (PARAMS.j,)
        stacked = dataclasses.replace(h, couplings=(PARAMS.j, 2.0 * PARAMS.j, 0.0))
        t = np.linspace(0.0, h.t_end, 7)
        c = stacked.coefficients(t)
        assert c.shape == (7, 3, len(h.terms))
        exchange = np.array([not name for name, _, _ in h.terms])
        np.testing.assert_array_equal(c[:, 1, exchange], 2.0 * c[:, 0, exchange])
        np.testing.assert_array_equal(c[:, 2, exchange], 0.0)
        for k in (1, 2):
            np.testing.assert_array_equal(c[:, k, ~exchange], c[:, 0, ~exchange])
        with pytest.raises(ValueError, match="one coupling"):
            stacked(t)

    def test_vectorized_call_matches_scalar(self):
        h = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), XGate(20.0))
        t = np.linspace(0.0, h.t_end, 37)
        stacked = h(t)
        for k, tk in enumerate(t):
            assert np.allclose(stacked[k], h(float(tk)), atol=1e-14)

    def test_zero_amplitude_modulation_is_bare_crosstalk(self):
        fm0 = FrequencyModulation(cycles=4, gamma=0.0)
        u_fm = window_propagator(assemble_hamiltonian(PARAMS, PAIR, fm0, Idle(20.0)))
        u_cd = window_propagator(assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0)))
        assert np.abs(u_fm - u_cd).max() < 1e-10

    def test_segmented_baseline_idle_is_bare_crosstalk(self):
        dd = DynamicalDecoupling(segments=4, width=1.25)
        base = assemble_hamiltonian(
            PARAMS, PAIR, dataclasses.replace(dd, pulses=False), Idle(20.0)
        )
        cd = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0))
        t = np.linspace(0.0, 20.0, 101)
        assert np.abs(base(t) - cd(t)).max() < 1e-14

    def test_detuning_sign_is_irrelevant_to_fidelity(self):
        from xtalksim.experiments import run_single_gate

        flipped = dataclasses.replace(PARAMS, delta=-PARAMS.delta)
        for scheme in (CrosstalkOnly(), FrequencyModulation(cycles=4, gamma=1.26)):
            a = run_single_gate(PARAMS, PAIR, scheme, Idle(20.0), step=0.01)
            b = run_single_gate(flipped, PAIR, scheme, Idle(20.0), step=0.01)
            assert a == pytest.approx(b, abs=1e-10)

    def test_single_site_target_consistency(self):
        fm_neighbor = FrequencyModulation(cycles=4, gamma=1.26, single_site=False)
        fm_center = FrequencyModulation(cycles=4, gamma=1.26, single_site=True)
        with pytest.raises(ValueError, match="modulat"):
            assemble_hamiltonian(PARAMS, PAIR, fm_neighbor, XGate(20.0, target=2))
        with pytest.raises(ValueError, match="modulat"):
            assemble_hamiltonian(PARAMS, PAIR, fm_center, XGate(20.0, target=1))
        # Parallel drives touch both sides and are valid either way.
        assemble_hamiltonian(PARAMS, PAIR, fm_neighbor, ParallelXX(20.0))
        assemble_hamiltonian(PARAMS, PAIR, fm_center, ParallelXX(20.0))

    def test_periodicity_flags(self):
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0), repetitions=3)
        assert h.periodic and h.tail == 0.0
        assert h.t_end == pytest.approx(60.0)
        h30 = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(30.0), repetitions=2)
        assert not h30.periodic
        dd = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), Idle(20.0))
        assert dd.tail == pytest.approx(0.625)
        assert dd.t_end == pytest.approx(20.625)


def expected_kinks(scheme, gate, repetitions):
    """Slope jumps of the assembled drives, from the waveform geometry."""
    t_gate = gate.duration
    if isinstance(scheme, DynamicalDecoupling):
        tau = t_gate / scheme.segments
        w = scheme.width if scheme.pulses else 0.0
        segments = range(1, repetitions * scheme.segments + 1)
        pulses = [s * tau + side * w / 2 for s in segments for side in (-1, 1)]
        bursts = [e for s in segments if s % 2 for e in ((s - 1) * tau + w / 2, s * tau - w / 2)]
        return (pulses if scheme.pulses else []) + ([] if isinstance(gate, Idle) else bursts)
    return [] if isinstance(gate, Idle) else [k * t_gate for k in range(repetitions + 1)]


class TestBreakpoints:
    DD = DynamicalDecoupling(segments=4, width=1.25)

    @pytest.mark.parametrize(
        "topology, scheme, gate, repetitions",
        [
            (PAIR, CrosstalkOnly(), Idle(20.0), 1),
            (PAIR, DD, Idle(20.0), 1),
            (PAIR, DD, XGate(20.0), 1),
            (PAIR, dataclasses.replace(DD, pulses=False), XGate(20.0), 1),
            (PAIR, DD, ParallelXX(20.0), 3),
            (PAIR, DD, Idle(30.0), 2),
            (STAR, DD, XGate(20.0, target=2), 2),
            (PAIR, FrequencyModulation(cycles=4, gamma=2.0), XGate(20.0), 3),
            (PAIR, FrequencyModulation(cycles=4, gamma=2.0), Idle(30.0), 2),
        ],
        ids=[
            "cd-idle", "dd-idle", "dd-x", "baseline-x", "dd-parallel-x3", "dd-idle-unmatched-x2",
            "star-dd-center-x2", "fm-x3", "fm-idle-unmatched-x2",
        ],
    )
    def test_kinks_on_step_boundaries(self, topology, scheme, gate, repetitions):
        h = assemble_hamiltonian(PARAMS, topology, scheme, gate, repetitions=repetitions)
        kinks = expected_kinks(scheme, gate, repetitions)
        t_gate, tail = gate.duration, h.tail
        windows = [(0.0, t_gate + tail)] + [
            ((k - 1) * t_gate + tail, k * t_gate + tail) for k in range(2, repetitions + 1)
        ]
        for t_start, t_end in windows:
            grid = TimeGrid.with_max_step(t_start, t_end, 0.02, h.breakpoints)
            edges = grid.boundaries()
            assert np.diff(edges).max() <= 0.02 * (1.0 + 1e-9)
            for kink in kinks:
                if t_start < kink < t_end:
                    assert np.abs(edges - kink).min() <= 1e-12, (t_start, t_end, kink)


class TestFrameEquivalence:
    @pytest.mark.parametrize(
        "scheme, gate",
        [
            (FrequencyModulation(cycles=4, gamma=1.26), Idle(20.0)),
            (FrequencyModulation(cycles=4, gamma=1.26, single_site=True), XGate(20.0, target=2)),
            (FrequencyModulation(cycles=4, gamma=1.26), ParallelXX(20.0)),
        ],
        ids=["idle", "x-on-modulated", "parallel"],
    )
    def test_modulated_and_operation_frames_agree(self, scheme, gate):
        # Whole-gate propagators of the two integration frames coincide up
        # to the second-order step error of the integrator.
        us = []
        for frame in ("modulated", "operation"):
            h = assemble_hamiltonian(PARAMS, PAIR, scheme, gate, fm_frame=frame)
            us.append(window_propagator(h, step=0.0005))
        assert np.abs(us[0] - us[1]).max() < 2e-7

    def test_ideal_pulse_product_formula(self):
        # With narrow pulses and weak coupling the decoupled propagator
        # approaches free-evolution windows interleaved with Z gates.
        weak = SystemParams.from_mhz(50.0, 0.05)
        t_m = weak.matched_time()
        tau = t_m / 4.0
        dd = DynamicalDecoupling(segments=4, width=tau / 64.0)
        u_dd = window_propagator(
            assemble_hamiltonian(weak, PAIR, dd, Idle(t_m)), step=0.0005
        )
        z2 = expm_hamiltonian((np.pi / 2.0) * embed(SIGMA_Z, 2, 2), 1.0)
        expect = np.eye(4, dtype=complex)
        for s in range(1, 5):
            u_free = propagate(
                lambda t: coupling(weak, PAIR, t),
                TimeGrid.with_max_step((s - 1) * tau, s * tau, 0.0005),
            )
            expect = z2 @ u_free @ expect
        assert np.abs(u_dd - expect).max() < 5e-5


class TestReferences:
    def test_static_frame_oracle_pair(self):
        u = window_propagator(assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0)))
        assert np.abs(u - static_frame_reference(PARAMS, PAIR, 20.0)).max() < 1e-8

    def test_static_frame_oracle_star(self):
        u = window_propagator(assemble_hamiltonian(PARAMS, STAR, CrosstalkOnly(), Idle(20.0)))
        assert np.abs(u - static_frame_reference(PARAMS, STAR, 20.0)).max() < 1e-8

    def test_target_unitaries(self):
        assert np.allclose(target_unitary(Idle(20.0), PAIR), np.eye(4))
        x1 = target_unitary(XGate(20.0, target=1), PAIR)
        assert np.allclose(x1, expm_hamiltonian((np.pi / 2.0) * embed(SIGMA_X, 1, 2), 1.0))
        xx = target_unitary(ParallelXX(20.0), PAIR)
        assert np.allclose(
            xx,
            expm_hamiltonian(
                (np.pi / 2.0) * (embed(SIGMA_X, 1, 2) + embed(SIGMA_X, 2, 2)), 1.0
            ),
        )
        # Repetitions compose the single-gate target.
        assert np.allclose(
            target_unitary(XGate(20.0), PAIR, repetitions=3), np.linalg.matrix_power(x1, 3)
        )

    def test_target_unitaries_are_exact(self):
        # exp(-i pi/2 X) = -i X, so every ideal gate has entries 0, +-1, +-i.
        x, eye = SIGMA_X, np.eye(2)
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0, target=1), PAIR), -1j * kron(x, eye)
        )
        np.testing.assert_array_equal(target_unitary(ParallelXX(20.0), PAIR), -kron(x, x))
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0), PAIR, repetitions=3), 1j * kron(x, eye)
        )
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0, target=2), STAR), -1j * kron(eye, x, eye, eye, eye)
        )
        np.testing.assert_array_equal(
            target_unitary(Idle(20.0), STAR, repetitions=4), np.eye(32)
        )

    def test_driven_gate_hits_target(self):
        # The calibrated half-sine drive at zero coupling realizes the ideal
        # pi rotation up to integrator error.
        silent = SystemParams(delta=PARAMS.delta, j=0.0)
        u = window_propagator(
            assemble_hamiltonian(silent, PAIR, CrosstalkOnly(), XGate(20.0, target=1))
        )
        assert np.abs(u - target_unitary(XGate(20.0, target=1), PAIR)).max() < 1e-8
