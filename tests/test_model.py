import dataclasses
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
import scipy.linalg
from helpers import count_calls, coupling, hermiticity_defect

from xtalksim import experiments, model
from xtalksim.experiments import SchemeRun, run_sequence
from xtalksim.model import (
    PAIR,
    STAR,
    CrosstalkOnly,
    DynamicalDecoupling,
    FrequencyModulation,
    Idle,
    ParallelXX,
    SymmetryBlocks,
    SystemParams,
    XGate,
    angular_to_cyclic_mhz,
    assemble_hamiltonian,
    check_assembly,
    cyclic_mhz_to_angular,
    static_frame_reference,
    target_unitary,
)
from xtalksim.operators import SIGMA_X, SIGMA_Z, embed, step_boundaries

PARAMS = SystemParams.from_mhz(50.0, 5.0)


def window_propagator(h, step=0.002):
    return oracles.propagate(h, step_boundaries(0.0, h.t_end, step))


class TestUnitsAndParams:
    def test_mhz_round_trip(self):
        assert angular_to_cyclic_mhz(cyclic_mhz_to_angular(50.0)) == pytest.approx(50.0)
        assert cyclic_mhz_to_angular(50.0) == pytest.approx(2.0 * np.pi * 0.05)

    def test_characteristic_times(self):
        assert PARAMS.matched_time() == pytest.approx(20.0)
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

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    def test_rejects_non_finite_params(self, bad):
        with pytest.raises(ValueError, match="detuning must be finite"):
            SystemParams(delta=bad, j=0.1)
        with pytest.raises(ValueError, match="coupling must be finite"):
            SystemParams(delta=1.0, j=bad)
        with pytest.raises(ValueError, match="modulation amplitude must be finite"):
            FrequencyModulation(cycles=4, gamma=bad)

    @pytest.mark.parametrize(
        "duration", [np.inf, np.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"]
    )
    @pytest.mark.parametrize("gate", [Idle, XGate, ParallelXX])
    def test_gates_reject_bad_duration(self, gate, duration):
        # An infinite idle used to reach the step builder and overflow there.
        with pytest.raises(ValueError, match="gate time must be positive and finite"):
            gate(duration)

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: DynamicalDecoupling(segments=6.0), r"pulse count .* got 6\.0"),
            (lambda: DynamicalDecoupling(segments=np.float64(4)), r"pulse count .* got (np\.float64\()?4\.0"),
            (lambda: DynamicalDecoupling(width=np.nan), "pulse width .* got nan"),
            (lambda: DynamicalDecoupling(width=np.inf), "pulse width .* got inf"),
            (lambda: DynamicalDecoupling(width=0.0), r"pulse width .* got 0\.0"),
            (lambda: XGate(20.0, target=1.5), r"target qubit .* got 1\.5"),
            (lambda: FrequencyModulation(cycles=4.0, gamma=1.0), r"cycle count .* got 4\.0"),
            (lambda: FrequencyModulation(cycles=True, gamma=1.0), r"cycle count .* got True$"),
            (lambda: XGate(20.0, target=True), r"target qubit label .* got True$"),
        ],
        ids=["dd-float-segments", "dd-numpy-float-segments", "dd-nan-width", "dd-inf-width",
             "dd-zero-width", "x-float-target", "fm-float-cycles", "fm-bool-cycles", "x-bool-target"],
    )
    def test_schemes_and_gates_reject_non_integers_and_bad_widths(self, build, match):
        # Caught when built, not inside assembly or as a label such as DD-Z6.0.
        with pytest.raises(ValueError, match=match):
            build()

    def test_numpy_integers_are_counts(self):
        assert DynamicalDecoupling(segments=np.int64(6)).segments == 6
        assert XGate(20.0, target=np.int32(2)).target == 2
        assert FrequencyModulation(cycles=np.int64(4), gamma=1.0).cycles == 4


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
        h0 = coupling(PARAMS, STAR, 0.0)
        assert h0.shape == (32, 32)
        assert hermiticity_defect(h0) < 1e-14
        expect = np.zeros((32, 32), dtype=complex)
        for a, b in STAR.edges:
            up_a = embed(oracles.SIGMA_PLUS, a, 5)
            dn_b = embed(oracles.SIGMA_MINUS, b, 5)
            expect += PARAMS.j * (up_a @ dn_b + dn_b.conj().T @ up_a.conj().T)
        assert np.abs(h0 - expect).max() < 1e-14

    @pytest.mark.parametrize(
        "layout",
        [
            PAIR,
            STAR,
            # Duck-typed, as the static references accept: a chain with a
            # repeated edge and a center that is not qubit 2.
            SimpleNamespace(n_qubits=3, center=1, edges=((2, 1), (3, 2), (2, 1)), dim=8),
        ],
        ids=["pair", "star", "namespace"],
    )
    def test_flip_flop_matches_kronecker_products(self, layout):
        built = model._flip_flop(layout)
        assert built.dtype == complex
        assert np.array_equal(built, oracles.flip_flop(layout))


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
            assert hermiticity_defect(oracles.hamiltonian(h, float(t))) < 1e-12

    def test_coupling_is_a_coefficient(self):
        # Term matrices are at unit coupling; J scales the exchange
        # coefficients, one row per coupling of the stack.
        h = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), XGate(20.0))
        assert h.couplings == (PARAMS.j,)
        stacked = dataclasses.replace(h, couplings=(PARAMS.j, 2.0 * PARAMS.j, 0.0))
        t = np.linspace(0.0, h.t_end, 7)
        c = stacked.coefficients(t)
        assert c.shape == (7, 3, 2 + len(h.controls))
        np.testing.assert_array_equal(c[:, 1, :2], 2.0 * c[:, 0, :2])
        np.testing.assert_array_equal(c[:, 2, :2], 0.0)
        for k in (1, 2):
            np.testing.assert_array_equal(c[:, k, 2:], c[:, 0, 2:])
        with pytest.raises(ValueError, match="one coupling"):
            oracles.hamiltonian(stacked, t)

    def test_vectorized_call_matches_scalar(self):
        h = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), XGate(20.0))
        t = np.linspace(0.0, h.t_end, 37)
        stacked = oracles.hamiltonian(h, t)
        for k, tk in enumerate(t):
            assert np.allclose(stacked[k], oracles.hamiltonian(h, float(tk)), atol=1e-14)

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
        assert np.abs(oracles.hamiltonian(base, t) - oracles.hamiltonian(cd, t)).max() < 1e-14

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

    @pytest.mark.parametrize(
        "topology, scheme, gate",
        [
            (PAIR, FrequencyModulation(cycles=4, gamma=1.26), XGate(20.0, target=2)),
            (PAIR, FrequencyModulation(cycles=4, gamma=1.26, single_site=True), XGate(20.0)),
            (STAR, CrosstalkOnly(), ParallelXX(20.0)),
            (PAIR, CrosstalkOnly(), XGate(20.0, target=3)),
            (STAR, DynamicalDecoupling(segments=4, width=5.0), Idle(20.0)),
        ],
        ids=["neighbor-site-fm", "single-site-fm", "star-parallel-xx", "no-qubit-3", "wide-pulses"],
    )
    def test_check_raises_what_assembly_raises(self, topology, scheme, gate):
        with pytest.raises(ValueError) as checked:
            check_assembly(topology, scheme, gate)
        with pytest.raises(ValueError) as assembled:
            assemble_hamiltonian(PARAMS, topology, scheme, gate)
        assert str(checked.value) == str(assembled.value)

    def test_check_returns_driven_qubits(self):
        dd = DynamicalDecoupling(segments=4, width=1.25)
        assert check_assembly(STAR, dd, Idle(20.0)) == ()
        assert check_assembly(STAR, dd, XGate(20.0, target=2)) == (2,)
        assert check_assembly(PAIR, CrosstalkOnly(), ParallelXX(20.0)) == (1, 2)
        with pytest.raises(ValueError, match="sequence length"):
            run_sequence(PARAMS, PAIR, SchemeRun(CrosstalkOnly()), Idle(20.0), 0)

    def test_periodicity_flags(self, monkeypatch):
        # A run of gates propagates one steady window per distinct coupling
        # phase advance: one at the matched 20 ns, three at 30 ns for three
        # gates (the advance repeats only after 60 ns).
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0))
        assert h.tail == 0.0
        assert h.t_end == pytest.approx(20.0)
        calls = count_calls(monkeypatch, SymmetryBlocks, "propagate")
        run_sequence(PARAMS, PAIR, SchemeRun(CrosstalkOnly()), Idle(20.0), 3, step=0.05)
        assert len(calls) == 1
        calls.clear()
        run_sequence(PARAMS, PAIR, SchemeRun(CrosstalkOnly()), Idle(30.0), 2, step=0.05)
        assert len(calls) == 2
        dd = assemble_hamiltonian(PARAMS, PAIR, DynamicalDecoupling(4, 1.25), Idle(20.0))
        assert dd.tail == pytest.approx(0.625)
        assert dd.t_end == pytest.approx(20.625)

    def test_phase_sampled_once_per_call(self):
        # Both exchange coefficients come from one sample of phi.
        h = assemble_hamiltonian(PARAMS, PAIR, FrequencyModulation(cycles=4, gamma=1.26), XGate(20.0))
        calls = []

        def phase(t):
            calls.append(t)
            return h.phase(t)

        t = np.linspace(0.0, h.t_end, 9)
        sampled = dataclasses.replace(h, phase=phase).coefficients(t)
        assert len(calls) == 1
        np.testing.assert_array_equal(sampled, h.coefficients(t))

    def test_complex_phase_names_exchange(self):
        h = assemble_hamiltonian(PARAMS, PAIR, CrosstalkOnly(), Idle(20.0))
        turned = dataclasses.replace(h, phase=lambda t: PARAMS.delta * t + 0.1j * (t > 0.35))
        with pytest.raises(ValueError, match=r"on channel exchange at t=0\.4 ns"):
            turned.coefficients(np.array([0.3, 0.4]))

    def test_complex_coupling_advances_exchange_phase(self):
        # J e^{i theta} at time t is J at the coupling phase phi(t) + theta.
        fm = FrequencyModulation(cycles=4, gamma=1.26)
        h = assemble_hamiltonian(PARAMS, PAIR, fm, XGate(20.0))
        theta = 0.7
        t = np.linspace(0.0, h.t_end, 9)
        turned = dataclasses.replace(h, couplings=(PARAMS.j * np.exp(1j * theta),)).coefficients(t)
        phi = PARAMS.delta * t + 2.0 * fm.modulation(20.0).phase(t) + theta
        expect = PARAMS.j * np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        np.testing.assert_allclose(turned[:, 0, :2], expect, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(turned[:, 0, 2:], h.coefficients(t)[:, 0, 2:])


def expected_kinks(scheme, gate):
    """Slope jumps of the assembled drives of one gate, from the waveform geometry."""
    t_gate = gate.duration
    if isinstance(scheme, DynamicalDecoupling):
        tau = t_gate / scheme.segments
        w = scheme.width if scheme.pulses else 0.0
        segments = range(1, scheme.segments + 1)
        pulses = [s * tau + side * w / 2 for s in segments for side in (-1, 1)]
        bursts = [e for s in segments if s % 2 for e in ((s - 1) * tau + w / 2, s * tau - w / 2)]
        return (pulses if scheme.pulses else []) + ([] if isinstance(gate, Idle) else bursts)
    return [] if isinstance(gate, Idle) else [0.0, t_gate]


def gate_windows(h):
    """The windows a run of gates ``h`` may propagate: the first gate [0, T +
    tail], the steady window [tail, T + tail] and the head [0, tail]."""
    t_gate, tail = h.gate_time, h.tail
    return {(0.0, t_gate + tail), (tail, t_gate + tail)} | ({(0.0, tail)} if tail else set())


BREAKPOINT_CASES = pytest.mark.parametrize(
    "topology, scheme, gate, repetitions",
    [
        (PAIR, CrosstalkOnly(), Idle(20.0), 1),
        (PAIR, DynamicalDecoupling(segments=4, width=1.25), Idle(20.0), 1),
        (PAIR, DynamicalDecoupling(segments=4, width=1.25), XGate(20.0), 1),
        (PAIR, DynamicalDecoupling(segments=4, width=1.25, pulses=False), XGate(20.0), 1),
        (PAIR, DynamicalDecoupling(segments=4, width=1.25), ParallelXX(20.0), 3),
        (PAIR, DynamicalDecoupling(segments=4, width=1.25), Idle(30.0), 2),
        (STAR, DynamicalDecoupling(segments=4, width=1.25), XGate(20.0, target=2), 2),
        (PAIR, FrequencyModulation(cycles=4, gamma=2.0), XGate(20.0), 3),
        (PAIR, FrequencyModulation(cycles=4, gamma=2.0), Idle(30.0), 2),
    ],
    ids=[
        "cd-idle", "dd-idle", "dd-x", "baseline-x", "dd-parallel-x3", "dd-idle-unmatched-x2",
        "star-dd-center-x2", "fm-x3", "fm-idle-unmatched-x2",
    ],
)


class TestBreakpoints:
    @BREAKPOINT_CASES
    def test_kinks_on_step_boundaries(self, topology, scheme, gate, repetitions):
        # Every window of a run of any length is one of the gate's windows.
        h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
        kinks = expected_kinks(scheme, gate)
        for t_start, t_end in gate_windows(h):
            edges = step_boundaries(t_start, t_end, 0.02, h.breakpoints)
            assert np.diff(edges).max() <= 0.02 * (1.0 + 1e-9)
            for kink in kinks:
                if t_start < kink < t_end:
                    assert np.abs(edges - kink).min() <= 1e-12, (t_start, t_end, kink)

    @BREAKPOINT_CASES
    def test_sequences_propagate_only_gate_windows(self, monkeypatch, topology, scheme, gate, repetitions):
        # No window of a run reaches past the first gate's [0, T + tail].
        h = assemble_hamiltonian(PARAMS, topology, scheme, gate)
        calls = count_calls(monkeypatch, SymmetryBlocks, "propagate", lambda _, *window: window[:2])
        windows = list(experiments._windowed_propagators(h, PARAMS, repetitions, 0.05))
        assert len(windows) == repetitions
        assert set(calls) <= gate_windows(h)


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
        z2 = scipy.linalg.expm(-1j * (np.pi / 2.0) * embed(SIGMA_Z, 2, 2))
        expect = np.eye(4, dtype=complex)
        for s in range(1, 5):
            u_free = oracles.propagate(
                lambda t: coupling(weak, PAIR, t),
                step_boundaries((s - 1) * tau, s * tau, 0.0005),
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

    @pytest.mark.parametrize("t", [7.3, 20.0, 60.0])
    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_static_frame_eigh_matches_scipy(self, topology, t):
        # The eigh exponential of the static lab-frame Hamiltonian, built
        # from Kronecker products, rotated back by the bare energies.
        n = topology.n_qubits
        h0 = sum(
            -(0.0 if q == topology.center else PARAMS.delta) / 2.0 * embed(SIGMA_Z, q, n)
            for q in range(1, n + 1)
        )
        a = oracles.flip_flop(topology)
        u_lab = scipy.linalg.expm(-1j * t * (h0 + PARAMS.j * (a + a.conj().T)))
        expect = np.exp(1j * t * np.diagonal(h0))[:, None] * u_lab
        assert np.abs(static_frame_reference(PARAMS, topology, t) - expect).max() <= 1e-12

    @pytest.mark.parametrize("topology", [PAIR, STAR], ids=["pair", "star"])
    def test_static_frame_bare_hamiltonian_is_the_embed_sum(self, monkeypatch, topology):
        # Byte for byte the sum of Kronecker-embedded sigma^z terms, built
        # from the basis bits: a reference call embeds nothing.
        n = topology.n_qubits
        expect = np.zeros((topology.dim, topology.dim), dtype=complex)
        for q in range(1, n + 1):
            omega = 0.0 if q == topology.center else PARAMS.delta
            expect += -(omega / 2.0) * embed(SIGMA_Z, q, n)
        assert model._bare_hamiltonian(PARAMS, topology).tobytes() == expect.tobytes()
        embeds = count_calls(monkeypatch, model, "embed")
        kronecker_products = count_calls(monkeypatch, np, "kron")
        static_frame_reference(PARAMS, dataclasses.replace(topology), 13.0)
        assert (embeds, kronecker_products) == ([], [])

    def test_target_unitaries(self):
        assert np.allclose(target_unitary(Idle(20.0), PAIR), np.eye(4))
        x1 = target_unitary(XGate(20.0, target=1), PAIR)
        assert np.allclose(x1, scipy.linalg.expm(-1j * (np.pi / 2.0) * embed(SIGMA_X, 1, 2)))
        xx = target_unitary(ParallelXX(20.0), PAIR)
        assert np.allclose(
            xx,
            scipy.linalg.expm(-1j * (np.pi / 2.0) * (embed(SIGMA_X, 1, 2) + embed(SIGMA_X, 2, 2))),
        )
        # Repetitions compose the single-gate target.
        assert np.allclose(
            target_unitary(XGate(20.0), PAIR, repetitions=3), np.linalg.matrix_power(x1, 3)
        )

    def test_target_unitaries_are_exact(self):
        # exp(-i pi/2 X) = -i X, so every ideal gate has entries 0, +-1, +-i.
        x, eye = SIGMA_X, np.eye(2)
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0, target=1), PAIR), -1j * np.kron(x, eye)
        )
        np.testing.assert_array_equal(target_unitary(ParallelXX(20.0), PAIR), -np.kron(x, x))
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0), PAIR, repetitions=3), 1j * np.kron(x, eye)
        )
        np.testing.assert_array_equal(
            target_unitary(XGate(20.0, target=2), STAR), -1j * np.kron(np.kron(eye, x), np.eye(8))
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
