"""Host-speed reference: fixed kernels timed between the workload's tasks.

The benchmark runs on shared virtual machines whose speed drifts by up to
about 1.8x within minutes (other tenants contend for the same cores and
caches), so raw wall time of the same work differs from run to run by more
than any useful regression bound.  Each workload therefore names a mix of
reference kernels of the same character as its own hot paths, and the
benchmark times that mix between tasks.  The run's task times are scaled
by one factor (``HostSpeed.scale``), so that they read about what the work
would take on a host on which the kernels take their ``NOMINAL_S``.

The kernels are the benchmark's own code with fixed inputs; they do not
call the package, so a change to the package does not move them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

# After each timed piece of work the mix is sampled until the sampling has
# taken this share of the work's time, so samples cover the run evenly.
SHARE = 0.1
# How strongly the workloads respond to a change of host speed, relative to
# the kernels.  The slope of log task time on log kernel time, measured
# while the host drifted, was 0.6 to 0.7 for star gates and 0.8 to 1.0 for
# pair sweeps on a 2-vCPU Xeon (Sapphire Rapids) KVM guest: the kernels'
# short, cache-resident calls gain more from the host's fast mode than
# whole tasks do.  Over ten seeded runs of each workload, 0.8 gave the
# steadiest figures overall (gamma scans wanted 0.8 to 0.9, star gates 0.5
# to 0.7).
SENSITIVITY = 0.8


def _hermitian_batch(n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (a + a.conj().swapaxes(-1, -2)) / 2


_PARTS32 = _hermitian_batch(4, 32, 1)
_PARTS4 = _hermitian_batch(4, 4, 2)
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)


def _propagate(parts: np.ndarray, steps: int, dt: float) -> np.ndarray:
    """Time-ordered product of exp(-i H(t) dt) over ``steps`` midpoints, with
    H(t) = parts[0] + cos(w t) parts[1] + sin(w t) parts[2] + cos(2 w t) parts[3]:
    sample, check Hermiticity, diagonalize, exponentiate, multiply pairwise."""
    t = (np.arange(steps) + 0.5) * dt
    waves = np.stack([np.ones_like(t), np.cos(0.3 * t), np.sin(0.3 * t), np.cos(0.6 * t)])
    h = np.einsum("kt,kij->tij", waves, parts)
    if np.abs(h - h.conj().swapaxes(-1, -2)).max() > 1e-9:
        raise ValueError("reference Hamiltonian is not Hermitian")
    w, v = np.linalg.eigh(h)
    m = np.matmul(v * np.exp(-1j * dt * w)[..., None, :], v.conj().swapaxes(-1, -2))
    while m.shape[0] > 1:
        k = m.shape[0] // 2
        pairs = np.matmul(m[1 : 2 * k : 2], m[0 : 2 * k : 2])
        m = np.concatenate([pairs, m[-1:]]) if m.shape[0] % 2 else pairs
    return m[0]


def _phase(t, g):
    """Detuning phase plus a four-cycle modulation of amplitude g (rad/ns)."""
    return 0.314 * t + 2.0 * g / 1.257 * np.sin(1.257 * t)


def eigh32() -> None:
    """A 32-level propagation chunk, as in the star gates."""
    _propagate(_PARTS32, 32, 0.002)


def prop4() -> None:
    """A 4-level propagation chunk, as in the pair sweeps and sequences."""
    _propagate(_PARTS4, 1024, 0.002)


def fm1() -> None:
    """Adaptive quadrature of a scalar oscillatory integrand, as in the
    first-order functional."""
    for g in (1.3, 2.9):
        quad(lambda t: math.cos(_phase(t, g)), 0.0, 20.0, limit=400, epsabs=1e-12, epsrel=1e-10)


def fm2() -> None:
    """Composite Gauss-Legendre integral over the ordered triangle with a
    running inner integral (128 panels of 16 nodes), as in the second-order
    functionals."""
    for g in (0.7, 1.3, 1.9, 2.9):
        edges = np.linspace(0.0, 20.0, 129)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        nodes = 0.5 * (edges[1:] + edges[:-1])[:, None] + half * _GAUSS_X
        weights = half * _GAUSS_W
        totals = (weights * np.exp(-1j * _phase(nodes, g))).sum(axis=1)
        prefix = np.concatenate([[0.0], np.cumsum(totals)[:-1]])
        sub_half = 0.5 * (nodes - edges[:-1][:, None])
        sub_nodes = (edges[:-1][:, None] + sub_half)[..., None] + sub_half[..., None] * _GAUSS_X
        inner = (sub_half[..., None] * _GAUSS_W * np.exp(-1j * _phase(sub_nodes, g))).sum(axis=-1)
        abs((weights * np.exp(1j * _phase(nodes, g)) * (prefix[:, None] + inner)).sum())


# Nominal time of one call of each kernel, in s: a round figure near the
# median measured on a 2-vCPU Xeon (Sapphire Rapids) KVM guest with one
# BLAS thread.  It only sets the scale of the reported times.
NOMINAL_S = {"eigh32": 0.010, "prop4": 0.006, "fm1": 0.003, "fm2": 0.010}
KERNELS = {"eigh32": eigh32, "prop4": prop4, "fm1": fm1, "fm2": fm2}


class HostSpeed:
    """Times of one reference mix, sampled between tasks.

    A mix maps kernel names to call counts, in proportion to where the
    workload spends its time; one sample calls every kernel of the mix.
    The host switches between a fast and a slow mode for spans of 0.1 s to
    several seconds; a task of a second or more averages over the modes,
    and so does the mean of many samples, while any single sample does not.
    """

    def __init__(self, mix: dict[str, int]):
        self.mix = dict(mix)
        self.nominal = sum(NOMINAL_S[k] * n for k, n in self.mix.items())
        self.durations: list[float] = []  # one per sample, the whole mix
        self.kernel_s = dict.fromkeys(self.mix, 0.0)  # summed per kernel
        for name in self.mix:  # the first calls pay for lazy set-up
            KERNELS[name]()

    def sample(self) -> float:
        total = 0.0
        for name, count in self.mix.items():
            for _ in range(count):
                start = time.perf_counter()
                KERNELS[name]()
                took = time.perf_counter() - start
                self.kernel_s[name] += took
                total += took
        self.durations.append(total)
        return total

    def kernel_means(self) -> dict[str, float]:
        """Mean time of one call of each kernel, in s."""
        calls = len(self.durations)
        return {k: t / (calls * self.mix[k]) for k, t in self.kernel_s.items() if calls}

    def sample_after(self, busy_s: float) -> None:
        """Sample at least once, and until SHARE of ``busy_s`` is spent."""
        spent = self.sample()
        while spent < SHARE * busy_s:
            spent += self.sample()

    def scale(self) -> float:
        """Factor from measured times to times at the nominal host speed:
        (nominal / mean sampled time) ** SENSITIVITY."""
        if not self.durations:
            raise ValueError("the reference mix was never sampled")
        return (self.nominal / statistics.fmean(self.durations)) ** SENSITIVITY
