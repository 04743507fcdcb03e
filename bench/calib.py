"""Host-speed calibration of the benchmark's timings.

The small shared VMs the benchmark runs on change speed by up to 2x over
seconds to minutes, and a pass's raw time moves with them: over ten runs the
interquartile spread of a raw pass time reached 0.28 of its median. So while
an untraced pass runs, an interval timer interrupts it every ``INTERVAL_S``
and times a fixed kernel, and each item is reported at the reference
machine's speed:

    scaled = raw * REFERENCE_UNIT_S[kind] / (kernel time during the item)

where raw excludes the time spent in the kernel. There are two kernels, one
per kind of work paramest does, and each workload uses the one that matches
its hot path: ``step`` runs RK4 steps of a filtered estimator on numpy
3-vectors, like the integrator (``reproduce``, ``gain-sweep``); ``grid``
computes trapezoid Gram matrices over 2*pi windows and their smallest
eigenvalues, like the excitation sweep (``pe-scan``). The kernels call
nothing in paramest, so a change to paramest moves the scaled times as it
moves the raw ones, while a change of host speed moves item and kernel alike
and cancels. The raw times stay in every report.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median kernel times on the reference machine: a 2-core Intel Xeon VM at
# 2.1 GHz, Python 3.11.7, numpy 2.4.6
REFERENCE_UNIT_S = {"step": 0.0113, "grid": 0.0089}
# a kernel sample every INTERVAL_S of wall time while a pass runs: ~4% of it
INTERVAL_S = 0.25
# samples this close to an item, in seconds, also count towards its factor
MARGIN_S = 0.5
# fewest samples a factor rests on; the nearest in time are taken if needed
MIN_SAMPLES = 4

_STEP_MATRIX = np.array([[0.5, 0.1, 0.0], [0.0, 0.5, 0.1], [0.1, 0.0, 0.5]])
_GRID = 6284  # points of a 2*pi window at dt=1e-3


def step_kernel() -> float:
    """RK4 steps of a 3-parameter filtered estimator on numpy 3-vectors: the
    per-step Python and small-array work of paramest's integrator."""
    def rhs(t, y):
        w = np.array([1.0, np.cos(t), np.sin(t)])
        th, om, ge = y[:3], y[3:12].reshape(3, 3), y[12:]
        eps = ge - om @ th
        if not np.all(np.isfinite(eps)):
            raise FloatingPointError(t)
        return np.concatenate([5.0 * eps, (np.outer(w, w) - om).ravel(),
                               w * (w @ _STEP_MATRIX[0]) - ge])

    y, dt = np.zeros(15), 1e-3
    for k in range(120):
        t = k * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(y[0])


def grid_kernel() -> float:
    """Trapezoid Gram matrices of a 3-component regressor over 2*pi windows
    and their smallest eigenvalues: the work of paramest's excitation sweep."""
    rho = 0.0
    for k in range(36):
        ts = 0.05 * k + (2.0 * np.pi / (_GRID - 1)) * np.arange(_GRID)
        w = np.stack([np.ones_like(ts), np.cos(ts), np.exp(-0.25 * ts)], axis=1)
        weights = np.full(_GRID, 1e-3)
        weights[0] = weights[-1] = 5e-4
        gram = (w * weights[:, None]).T @ w
        rho += float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[0])
    return rho


KERNELS = {"step": step_kernel, "grid": grid_kernel}


def trimmed_mean(xs: list[float]) -> float:
    """Mean of the middle 80%: a time-weighted average that one outlier
    sample does not move."""
    xs = sorted(xs)
    cut = len(xs) // 10
    xs = xs[cut:len(xs) - cut]
    return sum(xs) / len(xs)


class Calibration:
    """Kernel samples taken while a run's passes execute, and the scaling
    they give.

    Between ``start`` and ``stop`` a wall-clock interval timer interrupts the
    workload every ``INTERVAL_S`` and times the kernel once in the signal
    handler, between two bytecodes of whatever paramest is running; long
    items are therefore tracked throughout, not only at their ends.
    ``spent_s`` accumulates the time spent in the kernel, which the caller
    subtracts from every interval it times.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.reference_s = REFERENCE_UNIT_S[kind]
        self.times: list[float] = []  # perf_counter at the start of each sample
        self.samples: list[float] = []  # kernel seconds
        self.spent_s = 0.0
        self._busy = False
        self._saved = None

    def sample(self, *_signal_args):
        if self._busy:  # a tick that arrives while a sample runs is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        KERNELS[self.kind]()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0
        self._busy = False

    def start(self):
        self._saved = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def factor(self, t0: float, t1: float) -> float:
        """Scale factor for work done between perf_counter times t0 and t1:
        the reference time over the trimmed mean of the samples taken during
        it or within MARGIN_S of it (at least the MIN_SAMPLES nearest)."""
        near = sorted(range(len(self.times)),
                      key=lambda i: max(t0 - self.times[i], self.times[i] - t1, 0.0))
        inside = [i for i in near if t0 - MARGIN_S <= self.times[i] <= t1 + MARGIN_S]
        chosen = inside if len(inside) >= MIN_SAMPLES else near[:MIN_SAMPLES]
        return self.reference_s / trimmed_mean([self.samples[i] for i in chosen])

    def median_factor(self) -> float:
        return self.reference_s / statistics.median(self.samples)
