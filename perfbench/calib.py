"""Host-speed calibration: fixed kernels timed around and during every op.

The host these benchmarks run on is shared.  Each of its vCPUs switches
between a fast and a slow speed every few seconds with the load of other
tenants, and a single-threaded run sees that as slower CPU time, not as
steal time.  So every op run is timed together with samples of two fixed
kernels that do not call chromaplane: a short block of samples before and
after the op, and one sample every TICK_S of wall time while the op runs
(from a SIGALRM handler, which runs between the op's bytecodes).  The op's
time, less the time its in-op samples took, is scaled to reference speed:

    normalized_s = raw_s * scale(the op's samples, the op's kind)

Not all work slows alike in the slow state.  Interpreted Python (the
solver's search, the ring walks) slows about 1.85x, vectorized numpy (the
sampled checks) about 1.43x, and the exports, a dense numpy build plus
string building, about 1.65-1.7x.  Each kernel matches one of the first
two; an op's kind names the kernel that resembles its work, and "mixed"
takes the geometric mean of the two scales (1.63x).  A faster or slower
program moves the normalized time exactly as it moves the raw time; a
faster or slower host moves the op and its kernel alike, and cancels.
"""
from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Each kernel's time on the reference host (2 vCPUs, "Intel(R) Xeon(R)
# Processor", Python 3.11.7, numpy 2.4.6) in its fast state.  Only scales:
# changing one rescales every normalized time of its kind by one factor.
REF_INTERP_S = 0.00060
REF_VECTOR_S = 0.00055
BLOCK_S = 0.02  # samples before and after each op run
TICK_S = 0.1  # one in-op sample per TICK_S while an op runs

_RNG = np.random.default_rng(20220112)


def interp_kernel() -> int:
    """Interpreted integer, dict and string work, like the solver's search
    and the exporters' line building.  About 0.6 ms."""
    acc, seen, parts = 0, {}, []
    for i in range(2500):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        seen[x & 511] = acc
        if i & 7 == 0:
            parts.append(f"e {i} {x & 1023}")
    return acc + len(seen) + len("\n".join(parts))


def vector_kernel() -> float:
    """Vectorized numpy on random points, like the sampled checks: draws,
    trigonometry, distances and a colour comparison.  About 0.55 ms."""
    x = _RNG.uniform(-3.0, 3.0, 8192)
    y = _RNG.uniform(-3.0, 3.0, 8192)
    a = np.arctan2(y, x)
    d = np.hypot(x, y)
    same = (np.floor(a * 3.0).astype(int) % 4) == (np.floor(d * 2.0).astype(int) % 4)
    return int(same.sum()) + float(np.cos(a).sum())


def _sample() -> tuple[float, float]:
    t0 = time.perf_counter()
    interp_kernel()
    t1 = time.perf_counter()
    vector_kernel()
    return t1 - t0, time.perf_counter() - t1


def block() -> list[tuple[float, float]]:
    """Samples for BLOCK_S seconds."""
    samples = [_sample()]
    while sum(map(sum, samples)) < BLOCK_S:
        samples.append(_sample())
    return samples


def scale(samples: list[tuple[float, float]], kind: str) -> float:
    """Factor that turns a raw time taken amid these samples into reference seconds.

    An op's time is the sum of its slices at each speed, and the samples
    come at even intervals of wall time, so each kernel's factor is the
    mean of REF / t over its samples t: the harmonic mean, not the median,
    which would pick one of the two speeds for the whole op.
    """
    interp = REF_INTERP_S / statistics.harmonic_mean([s[0] for s in samples])
    vector = REF_VECTOR_S / statistics.harmonic_mean([s[1] for s in samples])
    return {"interp": interp, "vector": vector, "mixed": math.sqrt(interp * vector)}[kind]


class Ticks:
    """Context manager: a kernel sample every TICK_S of wall time while open.

    `samples` holds them; `spent` is their total, time the op did not use.
    """

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def _tick(self, signum, frame):
        self.samples.append(_sample())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    @property
    def spent(self) -> float:
        return sum(map(sum, self.samples))
