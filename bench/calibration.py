"""Machine-speed calibration for the end-to-end times.

The benchmark shares its cores with other machines' work, and the speed it
gets swings by up to 2x within seconds. Raw wall times therefore spread by
15-20% between runs of the same code. To keep the end-to-end times
comparable, a fixed kernel that touches nothing of the package is timed
around each measured segment, and the segment's time is divided by the
machine's speed: the median kernel time over NOMINAL_KERNEL_S. Such times are
nominal seconds, what the segment takes when the machine runs the kernel in
NOMINAL_KERNEL_S. A slower program still reads slower, because the kernel
does not run the program.

The kernel is scalar Python arithmetic, like the solvers and the quadrature
callbacks. Against pure-Python, numpy and scipy-quadrature kernels, it tracked
the speed of all three workloads best.

The speed changes faster than a multi-second segment lasts, so kernels timed
only before and after such a segment barely track it. A sampled segment also
times the kernel from a SIGALRM handler every SAMPLE_INTERVAL_S while it
runs, and its raw time excludes the handler's. Only segments that run no
other threads in this process are sampled: with worker threads running, the
handler would wait for the interpreter lock and time the program's threading
instead of the machine.
"""
from __future__ import annotations

import math
import signal
import time

NOMINAL_KERNEL_S = 0.0005
SAMPLE_INTERVAL_S = 0.1


def _kernel() -> float:
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(1, 2000):
        x = i * 1e-3
        acc += math.log1p(x) / (1.0 + x * x)
        table[i & 255] = acc
    return time.perf_counter() - start


def kernel_s() -> float:
    """Median wall time of five runs of the calibration kernel."""
    return sorted(_kernel() for _ in range(5))[2]


class Meter:
    """Times segments of work in raw and in nominal seconds.

    Use it from the main thread, which is where signal handlers run.
    """

    def __init__(self) -> None:
        self._before = kernel_s()
        self._samples: list[float] = []
        self._handler_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(_kernel())
        self._handler_s += time.perf_counter() - start

    def measure(self, fn, *args, sampled: bool = False, **kwargs):
        """Run fn and return (its result, raw seconds, nominal seconds).

        sampled=True also times the kernel every SAMPLE_INTERVAL_S while fn
        runs. Pass it only for long segments that run no other threads.
        """
        self._samples, self._handler_s = [self._before], 0.0
        if sampled:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        self._before = kernel_s()
        samples = sorted(self._samples + [self._before])
        raw = elapsed - self._handler_s
        return result, raw, raw * NOMINAL_KERNEL_S / samples[len(samples) // 2]
