"""Machine-speed probes that scale wall times to a fixed reference speed.

Shared machines drift: on a 2-vCPU VM the same op's wall time moved by up to
1.8x over minutes, with no steal time, and a pure-Python loop moved with it.
So each timed section (an op, a scene set-up) runs between two probes, a
fixed piece of work that mixes the two kinds of hot path the workloads have
(tokenizing graph text and batched 3x3 array products), and its time is
reported as ``wall * REFERENCE_S / probe`` -- the seconds the section takes
on a machine where the probe takes ``REFERENCE_S``. One probe is as noisy
as one op, so the end-to-end figures divide a run's total section time by
its total probe time (``at_reference_speed``). The record keeps raw wall
times too.
"""
from __future__ import annotations

import math
import time

import numpy as np

_TEXT = [" ".join(["EDGE", str(k), str(k + 1)] + [f"{0.1 * (k + m):.17g}" for m in range(10)])
         for k in range(1500)]
_STACK = np.random.default_rng(0).standard_normal((20000, 3, 3))


def _text_work():
    """Tokenize and convert lines like a graph file's EDGE records."""
    for _ in range(8):
        for line in _TEXT:
            parts = line.split()
            int(parts[1]), int(parts[2])
            [float(x) for x in parts[3:]]


def _array_work():
    """Batched 3x3 products over a stack the size of a dense scene's edges."""
    for _ in range(5):
        np.einsum("nij,nkj->nik", _STACK @ _STACK, _STACK)


# Seconds of one probe at the reference speed: about the fastest time seen
# on a 2-vCPU x86_64 VM. It only sets the unit and must not change, or old
# and new numbers stop being comparable.
REFERENCE_S = 0.073


def at_reference_speed(samples) -> float:
    """Mean seconds of a run's ``(wall seconds, scale)`` samples at the
    reference speed: their total wall time over their total probe time."""
    pairs = [(wall, scale) for wall, scale in samples if math.isfinite(wall)]
    if not pairs:
        return math.nan
    probe_s = sum(REFERENCE_S / scale for _, scale in pairs)
    return sum(wall for wall, _ in pairs) / probe_s * REFERENCE_S


class SpeedProbe:
    def seconds(self) -> float:
        t0 = time.perf_counter()
        _text_work()
        _array_work()
        return time.perf_counter() - t0

    def measure(self, fn):
        """Call ``fn`` between two probes. Returns its result and the scale
        that turns its wall seconds into reference seconds."""
        before = self.seconds()
        result = fn()
        after = self.seconds()
        return result, 2.0 * REFERENCE_S / (before + after)
