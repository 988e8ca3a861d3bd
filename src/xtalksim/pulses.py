"""Drive and modulation waveforms.

All waveforms are value types: frozen dataclasses with a vectorized
``sample`` method returning the control amplitudes in rad/ns, as an array
shaped like the times (ns) it is given.  Samples outside a waveform's
support are zero, so assemblies can evaluate them on any grid without
bounds bookkeeping.  ``kinks`` lists the times where a waveform is not
smooth (its value or a derivative jumps); between them it is analytic,
which the propagator's step grids rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from xtalksim.operators import non_negative, positive, positive_int

__all__ = [
    "SineEnvelopeDrive",
    "FmZModulation",
    "NascentDeltaTrain",
    "SegmentedDrive",
]


@dataclass(frozen=True)
class SineEnvelopeDrive:
    """Half-sine X-gate envelope ``amplitude * sin(pi t / T)`` on [0, T].

    The X-gate calibration ``amplitude = pi^2 / (4 T)`` makes the envelope
    integrate to a pulse area of pi/2.
    """

    duration: float

    def __post_init__(self):
        positive("drive duration", self.duration)

    @property
    def amplitude(self) -> float:
        return math.pi**2 / (4.0 * self.duration)

    def sample(self, t):
        tt = np.asarray(t, dtype=float)
        inside = (tt >= 0.0) & (tt <= self.duration)
        return np.where(inside, self.amplitude * np.sin(np.pi * tt / self.duration), 0.0)

    def kinks(self) -> tuple[float, ...]:
        """The edges of the support, where the slope jumps."""
        return (0.0, self.duration)


@dataclass(frozen=True)
class FmZModulation:
    """Sinusoidal Z modulation ``gamma * sin(2 pi cycles t / duration)``.

    ``cycles`` full periods fit in one gate window, so the accumulated phase

        alpha(t) = (gamma * duration / (pi * cycles)) * sin^2(pi * cycles * t / duration)

    vanishes at both window edges and the waveform repeats seamlessly across
    consecutive gates.
    """

    gamma: float
    cycles: int
    duration: float

    def __post_init__(self):
        non_negative("modulation amplitude", self.gamma)
        positive_int("cycle count", self.cycles)
        positive("modulation duration", self.duration)

    def sample(self, t):
        tt = np.asarray(t, dtype=float)
        return self.gamma * np.sin(2.0 * np.pi * self.cycles * tt / self.duration)

    def phase(self, t):
        """Accumulated phase ``alpha(t)``, the running integral of the waveform."""
        tt = np.asarray(t, dtype=float)
        coeff = self.gamma * self.duration / (np.pi * self.cycles)
        return coeff * np.sin(np.pi * self.cycles * tt / self.duration) ** 2

    def kinks(self) -> tuple[float, ...]:
        """The window edges; the waveform and its phase are smooth everywhere."""
        return (0.0, self.duration)


@dataclass(frozen=True)
class NascentDeltaTrain:
    """Train of narrow unit-area pulses centered at ``s * interval``, s = 1..segments.

    Each pulse is the nascent delta ``(pi / (2 w)) * cos(pi u / w)`` on
    ``|u| <= w/2`` (zero outside), which integrates to exactly 1.  The train
    carries no overall coefficient; the Hamiltonian assembly scales it by the
    per-pulse rotation area (pi/2 for the Z train).
    """

    segments: int
    interval: float
    width: float

    def __post_init__(self):
        positive_int("pulse count", self.segments)
        if not 0.0 < self.width < positive("pulse interval", self.interval):
            raise ValueError(
                f"pulse width must satisfy 0 < w < interval, got w={self.width}, "
                f"interval={self.interval}"
            )

    def sample(self, t):
        tt = np.asarray(t, dtype=float)
        # Pulses do not overlap (w < interval), so only the nearest center matters.
        s = np.clip(np.round(tt / self.interval), 1, self.segments)
        u = tt - s * self.interval
        inside = np.abs(u) <= 0.5 * self.width
        return np.where(inside, (np.pi / (2.0 * self.width)) * np.cos(np.pi * u / self.width), 0.0)

    def kinks(self) -> tuple[float, ...]:
        """Both edges of every pulse, ``s * interval -+ width / 2``."""
        return tuple(
            s * self.interval + side * 0.5 * self.width
            for s in range(1, self.segments + 1)
            for side in (-1.0, 1.0)
        )


@dataclass(frozen=True)
class SegmentedDrive:
    """Cosine bursts filling the gaps of a pulse train, on odd segments only.

    Segment ``s`` covers ``[(s-1) * interval, s * interval]``; for odd ``s``
    up to ``segments`` the drive

        amplitude * cos(pi (t - (s - 1/2) interval) / (interval - width))

    is applied on ``[(s-1) interval + w/2, s interval - w/2]``, clear of the
    pulse windows at the segment boundaries.  The sqrt(X) calibration
    ``amplitude = pi^2 / (8 (interval - width))`` gives each burst an area of
    pi/4; two bursts per gate give an X gate.  ``width = 0`` is allowed and
    is the pulse-free reference drive.
    """

    segments: int
    interval: float
    width: float

    def __post_init__(self):
        positive_int("segment count", self.segments)
        if not 0.0 <= self.width < positive("segment interval", self.interval):
            raise ValueError(
                f"width must satisfy 0 <= w < interval, got w={self.width}, "
                f"interval={self.interval}"
            )

    @property
    def amplitude(self) -> float:
        return math.pi**2 / (8.0 * (self.interval - self.width))

    def sample(self, t):
        tt = np.asarray(t, dtype=float)
        s = np.floor(tt / self.interval).astype(int) + 1
        gap = self.interval - self.width
        center = (s - 0.5) * self.interval
        inside = (
            (s % 2 == 1)
            & (s >= 1)
            & (s <= self.segments)
            & (np.abs(tt - center) <= 0.5 * gap)
        )
        return np.where(inside, self.amplitude * np.cos(np.pi * (tt - center) / gap), 0.0)

    def kinks(self) -> tuple[float, ...]:
        """Both edges of every burst, clear of the pulse windows by ``width / 2``."""
        half = 0.5 * self.width
        return tuple(
            edge
            for s in range(1, self.segments + 1, 2)
            for edge in ((s - 1) * self.interval + half, s * self.interval - half)
        )
