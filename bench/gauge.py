"""The speed of the machine, measured between the operations of a run.

On a shared host the same single-threaded work takes up to a quarter more
CPU time in some minutes than in others: other tenants share the caches and
the memory bus, and the clock speed changes. So a timed run also times a
fixed kernel about every EVERY_S seconds between operations, and the gated
timings are scaled by REF_MS over the median kernel time: they read as on a
machine that runs the kernel in REF_MS. The kernel uses no locc_lab code, so
a change to the program moves the scaled times and leaves the scale alone.

The kernel mixes, in about equal parts of its time, the kinds of work the
workloads do: an interpreted loop, many calls on tiny complex matrices, dense
Hermitian eigensolves in and beyond the core's cache, and a streaming pass
over memory. No one part tracks every workload; the mix tracks each of them
better than the run's own unscaled times do.
"""

import statistics
import time

import numpy as np

# Median kernel CPU time on the machine that set the baseline (2 vCPUs of an
# Intel Xeon at 2.1 GHz, one BLAS thread). It only sets the unit of the
# scaled times, so it stays fixed when the machine changes.
REF_MS = 17.5
EVERY_S = 0.5


def _hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class Gauge:
    """Kernel CPU times taken between operations, and the scale they give.

    Its arrays and the eigensolver workspaces raise the run's peak RSS by
    a few MB.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tiny = _hermitian(rng, 8)
        self.mid = _hermitian(rng, 144)
        self.large = _hermitian(rng, 192)
        self.stream = np.ones(500_000)  # 4 MB: beyond the core's own caches
        self.samples = []
        self._due = 0.0

    def kernel(self):
        s = 0
        for i in range(30000):
            s += i * i
        for _ in range(100):
            np.linalg.eigvalsh(self.tiny)
            self.tiny @ self.tiny
        np.linalg.eigvalsh(self.mid)
        np.linalg.eigvalsh(self.large)
        for _ in range(8):
            self.stream.sum()
            np.multiply(self.stream, 1.0, out=self.stream)
        return s

    def tick(self):
        """Time the kernel if EVERY_S seconds have passed since it last ran."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + EVERY_S

    def sample(self):
        c0 = time.process_time()
        self.kernel()
        self.samples.append(time.process_time() - c0)

    def scale(self):
        """REF_MS over the median kernel time: below 1 on a slow spell."""
        return REF_MS / (1e3 * statistics.median(self.samples))
