import numpy as np
import oracles
import pytest
import scipy.integrate

from xtalksim.model import PAIR, FrequencyModulation, SystemParams, XGate, assemble_hamiltonian
from xtalksim.operators import SIGMA_Z
from xtalksim.pulses import (
    FmZModulation,
    NascentDeltaTrain,
    SegmentedDrive,
    SineEnvelopeDrive,
)


def quad_area(sample, lo, hi):
    val, err = scipy.integrate.quad(sample, lo, hi, limit=400)
    assert err < 1e-10
    return val


def total_area(waveform, lo, hi):
    """Integral of a waveform over [lo, hi], by quadrature between its kinks."""
    edges = [lo, *sorted(k for k in waveform.kinks() if lo < k < hi), hi]
    return sum(quad_area(waveform.sample, a, b) for a, b in zip(edges, edges[1:]))


class TestSineEnvelope:
    def test_x_gate_area_is_half_pi(self):
        env = SineEnvelopeDrive(20.0)
        assert total_area(env, -1.0, 21.0) == pytest.approx(np.pi / 2.0, rel=1e-12)
        assert quad_area(env.sample, 0.0, 20.0) == pytest.approx(np.pi / 2.0, rel=1e-10)

    def test_zero_outside_window(self):
        env = SineEnvelopeDrive(20.0)
        assert env.sample(-0.1) == 0.0
        assert env.sample(20.1) == 0.0
        assert env.sample(10.0) == pytest.approx(np.pi**2 / 80.0)

    def test_vectorized(self):
        env = SineEnvelopeDrive(10.0)
        t = np.linspace(-1, 11, 50)
        assert np.allclose(env.sample(t), [env.sample(float(x)) for x in t])

    @pytest.mark.parametrize("bad", [0.0, -20.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
    def test_rejects_non_positive_or_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match=rf"drive duration must be positive and finite, got {bad}$"):
            SineEnvelopeDrive(bad)


class TestFmZModulation:
    def test_phase_is_running_integral(self):
        mod = FmZModulation(gamma=1.3, cycles=4, duration=20.0)
        t = np.linspace(0.5, 19.5, 41)
        eps = 1e-6
        deriv = (mod.phase(t + eps) - mod.phase(t - eps)) / (2 * eps)
        assert np.allclose(deriv, mod.sample(t), atol=1e-6)

    def test_phase_vanishes_at_edges(self):
        mod = FmZModulation(gamma=2.0, cycles=6, duration=20.0)
        assert mod.phase(0.0) == 0.0
        assert abs(mod.phase(20.0)) < 1e-12
        assert total_area(mod, 0.0, 20.0) == pytest.approx(0.0, abs=1e-12)

    def test_quadrature_matches_phase(self):
        mod = FmZModulation(gamma=0.9, cycles=3, duration=20.0)
        for t_hi in (3.7, 11.2):
            assert quad_area(mod.sample, 0.0, t_hi) == pytest.approx(mod.phase(t_hi), abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            FmZModulation(gamma=-1.0, cycles=4, duration=20.0)
        with pytest.raises(ValueError):
            FmZModulation(gamma=1.0, cycles=0, duration=20.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=rf"modulation amplitude must be finite and >= 0, got {bad}$"):
            FmZModulation(gamma=bad, cycles=4, duration=20.0)
        with pytest.raises(ValueError, match=rf"modulation duration must be positive and finite, got {bad}$"):
            FmZModulation(gamma=1.0, cycles=4, duration=bad)


class TestNascentDeltaTrain:
    def test_single_pulse_unit_area(self):
        train = NascentDeltaTrain(segments=4, interval=5.0, width=1.25)
        center = 2 * 5.0
        area = quad_area(train.sample, center - 0.625, center + 0.625)
        assert area == pytest.approx(1.0, rel=1e-10)
        assert total_area(train, 0.0, 21.0) == pytest.approx(4.0, rel=1e-12)

    def test_zero_between_pulses(self):
        train = NascentDeltaTrain(segments=4, interval=5.0, width=1.25)
        assert train.sample(0.0) == 0.0
        assert train.sample(2.5) == 0.0
        assert train.sample(5.0) == pytest.approx(np.pi / 2.5)

    def test_single_pulse_propagator_is_z_rotation(self):
        # A half-pi-weighted unit pulse on sigma_z integrates to exp(-i pi/2 Z),
        # exactly a Z gate up to global phase.
        train = NascentDeltaTrain(segments=1, interval=5.0, width=1.25)
        u = oracles.propagate(
            lambda t: np.multiply.outer((np.pi / 2.0) * train.sample(t), SIGMA_Z),
            np.linspace(0.0, 5.625, 4501),
        )
        expect = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.abs(u - expect).max() < 1e-5

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            NascentDeltaTrain(segments=4, interval=5.0, width=5.0)
        with pytest.raises(ValueError):
            NascentDeltaTrain(segments=4, interval=5.0, width=0.0)


class TestSegmentedDrive:
    def test_burst_area_is_quarter_pi(self):
        drive = SegmentedDrive(segments=4, interval=5.0, width=1.25)
        assert total_area(drive, 0.0, 5.0) == pytest.approx(np.pi / 4.0, rel=1e-12)
        measured = quad_area(drive.sample, 0.625, 5.0 - 0.625)
        assert measured == pytest.approx(np.pi / 4.0, rel=1e-10)

    def test_active_on_odd_segments_only(self):
        drive = SegmentedDrive(segments=4, interval=5.0, width=1.25)
        assert drive.sample(2.5) != 0.0
        assert drive.sample(7.5) == 0.0
        assert drive.sample(12.5) != 0.0
        assert drive.sample(17.5) == 0.0
        # Clear of the pulse windows at segment boundaries.
        assert drive.sample(5.0) == 0.0
        assert drive.sample(5.3) == 0.0

    def test_total_area_two_bursts(self):
        drive = SegmentedDrive(segments=4, interval=5.0, width=1.25)
        assert total_area(drive, 0.0, 20.0) == pytest.approx(np.pi / 2.0, rel=1e-12)

    def test_zero_width_reference(self):
        drive = SegmentedDrive(segments=4, interval=5.0, width=0.0)
        assert total_area(drive, 0.0, 20.0) == pytest.approx(np.pi / 2.0, rel=1e-12)
        assert quad_area(drive.sample, 0.0, 5.0) == pytest.approx(np.pi / 4.0, rel=1e-10)


class TestCountsAndIntervals:
    """Counts are integers (numpy's too, bool not) of at least 1 and pulse
    intervals are positive and finite, checked when a waveform is built."""

    @pytest.mark.parametrize(
        "build, match",
        [
            (lambda: FmZModulation(gamma=1.0, cycles=4.0, duration=20.0), r"cycle count .* got 4\.0$"),
            (lambda: FmZModulation(gamma=1.0, cycles=True, duration=20.0), r"cycle count .* got True$"),
            (lambda: FmZModulation(gamma=1.0, cycles=np.nan, duration=20.0), r"cycle count .* got nan$"),
            (lambda: NascentDeltaTrain(segments=4.0, interval=5.0, width=1.25), r"pulse count .* got 4\.0$"),
            (lambda: SegmentedDrive(segments=True, interval=5.0, width=1.25), r"segment count .* got True$"),
            (
                lambda: NascentDeltaTrain(segments=4, interval=np.inf, width=1.25),
                r"pulse interval must be positive and finite, got inf$",
            ),
            (
                lambda: SegmentedDrive(segments=4, interval=np.inf, width=1.25),
                r"segment interval must be positive and finite, got inf$",
            ),
        ],
        ids=["fm-float-cycles", "fm-bool-cycles", "fm-nan-cycles", "train-float-count",
             "bursts-bool-count", "train-inf-interval", "bursts-inf-interval"],
    )
    def test_rejected_when_built(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_numpy_integer_counts(self):
        train = NascentDeltaTrain(segments=np.int64(4), interval=5.0, width=1.25)
        assert train.kinks() == TestKinks.KINKED["train"].kinks()
        assert FmZModulation(gamma=1.0, cycles=np.int32(4), duration=20.0).kinks() == (0.0, 20.0)


class TestModulatedQuadrature:
    """The single-site drive in the operation frame: envelope * (cos 2 alpha, sin 2 alpha)."""

    def channels(self, gamma):
        h = assemble_hamiltonian(
            SystemParams.from_mhz(50.0, 5.0),
            PAIR,
            FrequencyModulation(cycles=4, gamma=gamma, single_site=True),
            XGate(20.0, target=2),
            fm_frame="operation",
        )
        return {name: coeff for name, coeff, _ in h.controls}

    def test_magnitude_equals_envelope(self):
        c = self.channels(1.26)
        t = np.linspace(0.0, 20.0, 101)
        envelope = SineEnvelopeDrive(20.0).sample(t)
        assert np.allclose(np.hypot(c["X2-drive"](t), c["Y2-drive"](t)), envelope, atol=1e-12)

    def test_reduces_to_plain_drive_at_zero_amplitude(self):
        c = self.channels(0.0)
        t = np.linspace(0.0, 20.0, 101)
        assert np.allclose(c["X2-drive"](t), SineEnvelopeDrive(20.0).sample(t))
        assert np.allclose(c["Y2-drive"](t), 0.0)
        assert quad_area(c["X2-drive"], 0.0, 20.0) == pytest.approx(np.pi / 2.0, rel=1e-10)


class TestKinks:
    """``kinks()`` lists exactly the points where a waveform's slope jumps."""

    KINKED = {
        "envelope": SineEnvelopeDrive(20.0),
        "train": NascentDeltaTrain(segments=4, interval=5.0, width=1.25),
        "bursts": SegmentedDrive(segments=4, interval=5.0, width=1.25),
        "bursts-zero-width": SegmentedDrive(segments=4, interval=5.0, width=0.0),
    }

    def test_declared_values(self):
        assert SineEnvelopeDrive(20.0).kinks() == (0.0, 20.0)
        assert FmZModulation(gamma=2.0, cycles=4, duration=20.0).kinks() == (0.0, 20.0)
        assert self.KINKED["train"].kinks() == pytest.approx(
            [4.375, 5.625, 9.375, 10.625, 14.375, 15.625, 19.375, 20.625]
        )
        assert self.KINKED["bursts"].kinks() == pytest.approx([0.625, 4.375, 10.625, 14.375])
        assert self.KINKED["bursts-zero-width"].kinks() == pytest.approx([0.0, 5.0, 10.0, 15.0])

    @pytest.mark.parametrize("name", sorted(KINKED))
    def test_slope_jumps_only_at_kinks(self, name):
        # On a binary grid holding every kink, a second difference is about
        # |slope jump| * dt at a kink and |f''| * dt^2 elsewhere.
        waveform = self.KINKED[name]
        dt = 2.0**-10
        t = np.arange(-1024, 22 * 1024) * dt
        f = waveform.sample(t)
        second = np.abs(f[2:] - 2.0 * f[1:-1] + f[:-2])
        at_kink = np.isin(t[1:-1], waveform.kinks())
        assert at_kink.sum() == len(waveform.kinks())
        assert second[~at_kink].max() < 0.01 * second[at_kink].min()
