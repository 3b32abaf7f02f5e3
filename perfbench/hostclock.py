"""Host seconds rescaled to a reference host speed.

The benchmark runs on shared hosts whose speed is not constant: on the
2-core reference host, load from neighbours slows every interpreter
loop by up to half for one to three seconds at a time, and the share of
such bursts drifts over minutes.  A run of raw wall-clock figures then
measures the neighbours as much as the program.

:class:`HostClock` runs a small fixed calibration kernel (pure
interpreter work: integer arithmetic, byte slicing, dict updates) every
``CALIBRATE_EVERY_S`` seconds of measured work, outside the measured
intervals, and scales each interval by ``REFERENCE_S / kernel_time``,
with the kernel time taken as the median of the last few samples.  A
figure in *reference seconds* is what the interval would have taken
with the kernel running at its reference speed.  The kernel lives in the benchmark, so a change to the
program under test moves the measured intervals and never the scale.
The garbage collector is paused while the kernel runs, so heap growth
in the program cannot slow the kernel and flatter the program.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import perf_counter

#: Kernel seconds on the reference host (2 cores, Python 3.11) when no
#: neighbour load was running; a scale of 1.0 means "as fast as that".
REFERENCE_S = 0.001


def _kernel() -> int:
    buf = bytearray(4096)
    table = {}
    total = 0
    for i in range(1200):
        offset = (i * 12) & 0xFF0
        buf[offset:offset + 4] = (i * 2654435761 & 0xFFFFFFFF).to_bytes(
            4, "little")
        total += int.from_bytes(buf[offset:offset + 4], "little") >> 3
        table[i & 127] = total
    return total + len(table)


#: Seconds of measured work between calibrations: bursts of neighbour
#: load last one to three seconds, so this tracks them closely for a
#: few percent of overhead.
CALIBRATE_EVERY_S = 0.05

#: The scale uses the median of this many most recent samples.
RECENT_SAMPLES = 3


class HostClock:
    """Calibration samples plus the current seconds-to-reference scale."""

    def __init__(self):
        self.samples = []
        self._recent = deque(maxlen=RECENT_SAMPLES)
        self._last = 0.0
        self.calibrate()

    def calibrate(self) -> float:
        """Time the kernel (the faster of two runs, so a cold cache after
        an idle wait does not count); returns the updated scale."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            elapsed = float("inf")
            for _ in range(2):
                start = perf_counter()
                _kernel()
                elapsed = min(elapsed, perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        self._recent.append(elapsed)
        self._last = perf_counter()
        return self.scale

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.median(self._recent)

    def tick(self) -> None:
        """Recalibrate when ``CALIBRATE_EVERY_S`` has passed since the
        last sample; call between measured intervals, never inside one."""
        if perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def speed(self) -> float:
        """Median host speed over the run (1.0 = reference speed)."""
        return REFERENCE_S / statistics.median(self.samples)
