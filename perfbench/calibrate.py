"""Machine-speed calibration, interleaved with the measured work.

The machines this benchmark runs on share their cores with other tenants,
and the speed of a core swings by tens of percent within seconds and drifts
over minutes.  A fixed slice of work made of the program's two modes,
interpreted integer loops and one big-integer product, is timed between
segments of the measured work.  Each segment's time divided by the speed
measured right before and right after it (slice time over REFERENCE_S)
reads in seconds of a machine on which one slice takes REFERENCE_S.  Timed
next to the work, the slices follow the swings: on a 30 ms expansion the
run-to-run variation of ten-operation blocks fell from 13% to 4%.

A long operation is cut into segments at the returns of etacert.series
functions (hooked from outside, like the tracer), so that it is calibrated
along its length and not only at its ends.  Every segment is normalized the
same way, whatever its length.  A workload made of multi-second
uninterrupted calls (T4_mod49) is not calibrated at all: the speed around
such a call does not describe it (normalizing them widened the spread of
T4_mod49 over four runs from 6% to 17%), so worker.py times it as is.
"""

import statistics
import time

from tracer import install_wrappers, restore

REFERENCE_S = 0.009
# Inside an operation, a segment ends at the first series-function return
# after this much work.
SEGMENT_S = 0.05
# Slices after a segment cover about this share of its duration; the speed
# after the segment is the median of the last max(batch, SMOOTH) slices.
DUTY = 0.1
MAX_BATCH = 20
SMOOTH = 5

_A = 3 ** 60000
_B = 7 ** 55000


def _slice() -> int:
    acc = 0
    for i in range(40000):
        acc += i * i
    return acc + (_A * _B).bit_length()


class ReferenceClock:
    """Times operations both as timed and at reference speed.

    Only one operation is timed at a time; `install` hooks the series layer
    so that long operations are cut into segments.
    """

    def __init__(self):
        self.samples: list[float] = []  # every slice time
        self._patched: list[tuple] = []
        self._mark = None  # start of the open segment, None outside operations
        self._speed = 0.0
        self._timed = self._reference = 0.0

    def install(self) -> None:
        def make_wrapper(fn, name):
            def hooked(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self._mark is not None and time.perf_counter() - self._mark >= SEGMENT_S:
                    self._close_segment()
                return result
            return hooked

        self._patched = install_wrappers(("series",), make_wrapper)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched = []

    def batch(self, count: int) -> float:
        """Time `count` slices; return the median speed factor of the last
        max(count, SMOOTH) slices (above 1: the machine ran slow)."""
        for _ in range(count):
            start = time.perf_counter()
            _slice()
            self.samples.append(time.perf_counter() - start)
        return statistics.median(self.samples[-max(count, SMOOTH):]) / REFERENCE_S

    def factor(self) -> float:
        """Median speed factor over every slice so far."""
        return statistics.median(self.samples) / REFERENCE_S

    def _close_segment(self) -> None:
        seconds = time.perf_counter() - self._mark
        after = self.batch(min(MAX_BATCH, max(1, round(seconds * DUTY / REFERENCE_S))))
        self._timed += seconds
        self._reference += 2 * seconds / (self._speed + after)
        self._speed = after
        self._mark = time.perf_counter()

    def refresh(self) -> None:
        """Measure the speed afresh, after work that was not timed."""
        self._speed = self.batch(SMOOTH)

    def start(self) -> None:
        if not self._speed:
            self.refresh()
        self._timed = self._reference = 0.0
        self._mark = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """End the operation; return its (timed, reference) seconds, slices excluded."""
        self._close_segment()
        self._mark = None
        return self._timed, self._reference

    def time(self, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one operation; return (result, timed s, reference s)."""
        self.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            timed, reference = self.stop()
        return result, timed, reference
