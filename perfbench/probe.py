"""Speed probe: how fast this CPU runs while a timed region runs.

The benchmark was written on 2 vCPUs of a shared host.  Each vCPU switches,
every second or so and independently of the other, between a fast and a
slow state: the same Python-heavy code takes up to 1.8 times as long, and
the share of time spent slow drifts over minutes.  A solve of a few seconds
averages over several switches, so its wall time moves with that share.

``Probe.timed`` runs a fixed kernel every ``PERIOD_S`` of wall time from a
``SIGALRM`` handler while the timed call runs, and scales the call's own
time (probe time removed) by ``REF_S`` over the mean kernel time: the
kernel samples the state the call ran in.  The kernel mixes what the
workloads do: tiny numpy products driven by a Python loop, and a 160x160
matrix product in BLAS.  Each run first rehearses a few loop turns and the
matrix product untimed, so the timed part finds its data, code paths and
BLAS buffers warm whatever the workload left behind, and its time follows
the CPU state only.  ``Probe.kernel`` also serves short regions such as
instance set-up, timed right after each of them.
"""

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
KERNEL_TURNS = 40
# Untimed loop turns before each timed run.  After a dense 1536x1536
# Cholesky (18.9 MB), a kernel run without rehearsal took 28% longer (first
# decile) than after a step of 64x64 work; with it, the same.
REHEARSAL_TURNS = 5
# Kernel time on the machine the benchmark was written on when its vCPU ran
# fast; scaled timings read as seconds at that speed.
REF_S = 2.3e-4


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((16, 32))
        self._square = rng.standard_normal((160, 160))
        self._product = np.empty_like(self._square)
        self._samples = []      # (start, whole duration, timed duration)
        self.durations = []     # every kernel duration of the process
        self._busy = False

    def kernel(self):
        """Run the kernel once; returns its duration in seconds."""
        if self._busy:          # a tick that lands inside the kernel itself
            return None
        self._busy = True
        try:
            small, vec = self._small, self._small[0]
            square, product = self._square, self._product
            start = time.perf_counter()
            for turns in (REHEARSAL_TURNS, KERNEL_TURNS):
                t0 = time.perf_counter()
                for _ in range(turns):
                    u = small @ vec
                    float(u @ u)
                np.matmul(square, square, out=product)
            end = time.perf_counter()
        finally:
            self._busy = False
        dt = end - t0
        self._samples.append((start, end - start, dt))
        self.durations.append(dt)
        return dt

    @contextlib.contextmanager
    def _ticking(self):
        previous = signal.signal(signal.SIGALRM, lambda *_: self.kernel())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn, *args):
        """Call ``fn(*args)`` with the kernel ticking.

        Returns ``(result, seconds, scale)``: the call's wall time without
        the kernel runs inside it, and ``REF_S`` over their mean timed
        duration.  A call that ends before the first tick is followed by one
        kernel run.
        """
        self._samples = []
        with self._ticking():
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        inside = [s for s in self._samples if s[0] < t1]
        seconds = t1 - t0 - sum(whole for _, whole, _ in inside)
        timed = [dt for _, _, dt in inside] or [self.kernel()]
        return result, seconds, REF_S / statistics.fmean(timed)
