"""Host-speed normalization of measured times.

The shared host this benchmark was written on drifts in speed by 20-30%
over seconds to minutes, with CPU time tracking wall time, so no run length
that fits the benchmark's budget averages the drift out.  A fixed
calibration kernel therefore runs from a SIGALRM timer every PERIOD seconds
while jobs are timed.  A job's time, minus the kernel runs that fell inside
it, is scaled by the kernel's reference time over its median time within
WINDOW seconds of the job: the result is the job's time at a fixed
reference host speed.  On one 150 s recording of the points workload, this
cut the spread of 15 s throughput windows from 19% to 3%.

The drift does not slow all work alike, so each workload names the kernel
closest to its dominant layer (workloads.SPEED_KERNEL).  The kernels use
only mpmath, integers and json, nothing from p1height, so no change to the
program can move them.  A kernel runs in the main thread between two
bytecodes of the interrupted job, and mpmath's workprec restores the
working precision the job had.

Set-up times are process start and imports more than computation, and
neither kernel tracks them; a reference start does: a fresh interpreter that
imports mpmath and runs the interpreter-bound kernel a few times
(reference_start).  Set-up probes alternate with reference starts, and each
probe is scaled by SETUP_REFERENCE over the mean of the reference starts
on either side of it.  On 28 set-up probes of paper-dense this cut the
spread from 49% to 11%, and on 42 probes of points from 33% to 10%.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

import mpmath as mp

PERIOD = 0.25
WINDOW = 0.5

_M = (1 << 32000) // 7 + 1
_X = (1 << 31000) // 3


def mpmath_kernel() -> None:
    """256-bit mpmath, small big-integer arithmetic and JSON rendering: the
    interpreter-bound mix of the archimedean series, elimination and cli."""
    with mp.workprec(256):
        u, s = mp.mpf(1) / 3, mp.mpf(0)
        for i in range(1, 120):
            u = (3 * u * u + 1) / (2 * u + 1)
            s += mp.log(abs(u) + i) / i
    x, m = 3**400, 7**380 + 1
    for i in range(150):
        x = (x * x + i) % m
    json.dumps({"a": [str(i) for i in range(200)]})


def bigint_kernel() -> None:
    """Squaring modulo a 32000-bit integer: the work of the gcd loop."""
    x = _X
    for i in range(2):
        x = (x * x + i) % _M


# kernel -> seconds it takes at the reference speed (about its median on
# the machine described in RESULTS.md)
KERNELS = {mpmath_kernel: 0.005, bigint_kernel: 0.005}


# seconds a reference start takes at the reference speed (about its median
# on the machine described in RESULTS.md)
SETUP_REFERENCE = 0.15
_REFERENCE_START = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import hostspeed\n"
    "for _ in range(10): hostspeed.mpmath_kernel()\n"
    "print(repr(time.monotonic()))"
)


def spawn_until_ready(cmd, cwd) -> float:
    """Seconds from spawning cmd until it printed its monotonic clock as its last word."""
    spawned = monotonic()
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - spawned


def reference_start() -> float:
    here = Path(__file__).resolve().parent
    return spawn_until_ready([sys.executable, "-c", _REFERENCE_START, str(here)], here)


class HostSpeed:
    """Timings of one kernel, sampled on a timer, in start order."""

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.reference = KERNELS[kernel]
        self.starts: list[float] = []
        self.durations: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        self.kernel()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    @contextmanager
    def sampling(self):
        """Sample every PERIOD seconds of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference-speed seconds of [start, end), without the kernel runs inside it."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        own = end - start - sum(self.durations[lo:hi])
        a = bisect_left(self.starts, start - WINDOW)
        b = bisect_right(self.starts, end + WINDOW)
        if a == b:
            # nothing near: the closest sample on either side
            a, b = max(a - 1, 0), min(b + 1, len(self.starts))
        return own * self.reference / median(self.durations[a:b])
