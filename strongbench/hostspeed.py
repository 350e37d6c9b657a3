"""Host-speed tracking with a fixed reference kernel.

On a small shared VM the CPU's speed moves by up to 1.5x between runs a
minute apart and by 2x within a run, in phases of several seconds, and
the program's wall time moves with it.  No statistic of wall time alone
separates that from a change in the program.  So the benchmark runs a
fixed reference kernel right before and after every timed unit of work,
and reports each timed sample in *reference seconds*:

    reference_s = wall_s * REFERENCE_S / kernel_s

where ``kernel_s`` is the mean of the kernel timings just before and
just after the sample and ``REFERENCE_S`` the kernel's nominal duration.
The kernel is benchmark code, independent of the program, so a change to
the program moves reference seconds exactly as it moves wall seconds on
a steady host.  Raw wall-clock values are printed beside them.

The kernel has two halves of about equal time, because the host's slow
phases slow the two kinds of work the program does by different amounts:
NumPy pair distances (array kernels, like the force and neighbor code)
and formatting rows of floats into text (interpreter work, like dump,
trace export and the model checker).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Nominal kernel duration: a round figure near its median (17-23 ms) on
#: a 2-vCPU Intel Xeon (Sapphire Rapids class) KVM guest, Python 3.11,
#: NumPy 2.4.  It only sets the scale of reference seconds.
REFERENCE_S = 0.020

_rng = np.random.default_rng(12345)
_POINTS = _rng.random((420, 3)) * 8.0
_ROWS = [tuple(row) for row in _rng.random((8000, 3)).tolist()]


def reference_kernel() -> float:
    """Run the kernel once; returns its wall seconds."""
    t0 = time.perf_counter()
    hits = 0
    for lo in range(0, len(_POINTS), 140):
        d = _POINTS[lo:lo + 140, None, :] - _POINTS[None, :, :]
        hits += int(((d * d).sum(-1) < 6.25).sum())
    text = "\n".join(
        f"{i + 1} 1 {x:.10g} {y:.10g} {z:.10g}" for i, (x, y, z) in enumerate(_ROWS)
    )
    if hits < 0 or not text:  # keep both results live
        raise AssertionError
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel timings taken through a run, and samples converted by them."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []

    def tick(self) -> int:
        """Time the kernel now; returns the tick's index for :meth:`factor`."""
        self.kernel_s.append(reference_kernel())
        return len(self.kernel_s) - 1

    def factor(self, tick: int) -> float:
        """Slowdown against nominal of a sample taken right after ``tick``.

        The mean of the tick before the sample and the one after it.
        """
        around = self.kernel_s[tick:tick + 2]
        return sum(around) / len(around) / REFERENCE_S

    def reference(self, samples: list[tuple[float, int]]) -> list[float]:
        """``(wall_s, tick)`` samples in reference seconds."""
        return [wall / self.factor(tick) for wall, tick in samples]

    def median_factor(self) -> float:
        return statistics.median(self.kernel_s) / REFERENCE_S if self.kernel_s else 1.0
