"""Host speed while a worker runs, from a fixed probe kernel.

On a shared host the CPU runs faster or slower from one second to the
next (on the two-vCPU host the baseline was measured on, by up to 1.6x
within a few seconds), and every CPU-bound time moves with it.  A
SpeedMeter runs `probe()` from a SIGALRM handler every PERIOD_S while
the worker runs, in the worker's own thread, and keeps each probe's
start and duration.  A region's time at reference speed (the speed at
which `probe()` takes PROBE_S) is its wall time, minus the time spent
in the handler inside it, times `speed()`: the mean of PROBE_S / probe
time over the probes inside the region, or over the MIN_PROBES nearest
ones if it holds fewer.
The probe does not touch opcal, so a change to opcal moves the
rescaled time and not the probe.
"""

import signal
import statistics
import time

import numpy as np

# Median probe() time inside reports on the baseline host (2-vCPU KVM
# guest, "Intel Xeon Processor" family 6 model 143, Python 3.11.7,
# numpy 2.4.6, one OpenBLAS thread).  Any fixed value works; this one
# keeps rescaled times close to wall times on that host.
PROBE_S = 0.0014
PERIOD_S = 0.05
MIN_PROBES = 5

_A = np.random.default_rng(0).standard_normal((16, 16)) * (1 + 0.5j)


def probe():
    """Wall seconds of one fixed mix of interpreter work and small
    complex linear algebra, the two kinds of work opcal's reports do."""
    start = time.perf_counter()
    table = {}
    for k in range(1200):
        key = (k % 61, k % 7)
        table[key] = table.get(key, 0.0) + k * 0.5
    x = _A
    for _ in range(12):
        x = _A @ x
        x = x / np.linalg.norm(x)
        np.linalg.eigvalsh(x + x.conj().T)
    return time.perf_counter() - start


class SpeedMeter:
    def __init__(self):
        self.probes = []  # (perf_counter at handler entry, probe s, handler s)
        self._previous = None

    def _tick(self, signum=None, frame=None):
        entered = time.perf_counter()
        seconds = probe()
        self.probes.append((entered, seconds, time.perf_counter() - entered))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def fill(self):
        """Probe until at least MIN_PROBES have run."""
        while len(self.probes) < MIN_PROBES:
            self._tick()

    def speed(self, start, end):
        """(speed relative to reference, handler seconds inside) for the
        perf_counter interval [start, end)."""
        inside = [p for p in self.probes if start <= p[0] < end]
        spent = sum(p[2] for p in inside)
        if len(inside) < MIN_PROBES:
            mid = (start + end) / 2.0
            inside = sorted(self.probes, key=lambda p: abs(p[0] - mid))[:MIN_PROBES]
        return statistics.fmean(PROBE_S / p[1] for p in inside), spent
