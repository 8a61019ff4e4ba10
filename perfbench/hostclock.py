"""Host-adjusted timing: operation times scaled by the host's speed during them.

The benchmark runs on a few cores of a shared host.  The host's other work
slows every instruction of this process, by up to half, in phases from a
fraction of a second to minutes long, and the slowdown shows in process CPU
time as much as in wall time.  Neither the minimum nor the median over a
run removes a slow phase that lasts longer than the run.

So the benchmark samples the host's speed with a fixed reference kernel, its
own permutation closure of PSL(2, 7), which the program under test never runs.
The kernel runs twice after every operation, and every ``PERIOD`` seconds
during one, from a timer signal.  Its time over ``REF_S`` is the host's
slowdown at that moment.  An operation's adjusted time is its measured time,
less the kernel runs inside it, times the mean speed (``REF_S`` over kernel
time) of the samples inside it and of the runs just before and after it: the
time it would have taken with the host at full speed.  A change to the
program moves the adjusted time exactly as it moves the measured one; the
host's phases move the operation and the kernel alike, and cancel.
"""

from __future__ import annotations

import signal
from time import perf_counter

import oracle

# one run of the reference kernel at the host's full speed: about the least
# of 2000 runs on a 2-vCPU Intel Xeon container, Python 3.11.7
REF_S = 0.00032
PERIOD = 0.01           # seconds between samples inside an operation
AFTER = 2               # kernel runs after each operation

_GENS = [tuple((z + 1) % 7 for z in range(7)) + (7,),
         (7,) + tuple((-pow(z, 5, 7)) % 7 for z in range(1, 7)) + (0,)]


def kernel() -> tuple[float, float]:
    """Run the reference kernel once; return its (start, end)."""
    t0 = perf_counter()
    if len(oracle.closure(_GENS, 8)) != 168:
        raise AssertionError("reference kernel: PSL(2, 7) has 168 elements")
    return t0, perf_counter()


def speeds(runs: list[tuple[float, float]]) -> list[float]:
    return [REF_S / (end - start) for start, end in runs]


class HostClock:
    """Times operations and adjusts each for the host's speed during it."""

    def __init__(self):
        for _ in range(20):     # warm up
            kernel()
        self.last = [kernel() for _ in range(AFTER)]
        self.inside: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        self.inside.append(kernel())

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, measured s, adjusted s).

        The measured time leaves out the kernel runs inside the operation."""
        self.inside = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            t0 = perf_counter()
            result = fn(*args)
            t1 = perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = [(s, e) for s, e in self.inside if t0 <= s and e <= t1]
        after = [kernel() for _ in range(AFTER)]
        samples = speeds(self.last + inside + after)
        self.last = after
        dt = t1 - t0 - sum(e - s for s, e in inside)
        return result, dt, dt * sum(samples) / len(samples)
