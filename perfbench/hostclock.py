"""Wall times rescaled to a nominal host speed.

Other tenants of a shared host slow every core by up to a third for
stretches of tens of seconds, with no steal time visible to the guest, so a
raw wall time moves with the neighbours rather than with the code. Between
timed intervals a ``HostClock`` runs a fixed reference kernel and rescales
each interval by the reference times measured just before and just after
it. The kernel (matmul, masked softmax, reduction and copy on ``[rows, 64]``
arrays) is shaped like the workload's own arrays, because small arrays and
large ones slow by different amounts under the same neighbours.

A rescaled time is the interval's wall time on a host where the reference
kernel takes ``NOMINAL_REF_S``. Each workload picks ``reps`` so that the
kernel alone takes about that long on an idle core of the shared 2-core Xeon
virtual machine the benchmark was written on. Inside a benchmark process it
runs faster there, so rescaled times read about a third above raw ones;
only their changes matter.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_REF_S = 0.030


class HostClock:
    def __init__(self, rows: int, reps: int):
        rng = np.random.default_rng(12345)
        self._a = rng.random((rows, 64))
        self._b = rng.random((64, 32))
        self._keep = (rng.random((rows, 32)) > 0.3).astype(np.float64)
        # preallocated outputs: the kernel allocates nothing, so its speed
        # does not depend on the allocator state the workload leaves behind
        self._c = np.empty((rows, 32))
        self._row = np.empty((rows, 1))
        self._copy = np.empty_like(self._a)
        self._reps = reps
        self.reference_s: list[float] = [self._reference()]

    def _reference(self) -> float:
        a, c, row = self._a, self._c, self._row
        t0 = time.perf_counter()
        for _ in range(self._reps):
            np.matmul(a, self._b, out=c)
            np.max(c, axis=1, keepdims=True, out=row)
            np.subtract(c, row, out=c)
            np.exp(c, out=c)
            np.multiply(c, self._keep, out=c)
            np.sum(c, axis=1, keepdims=True, out=row)
            np.divide(c, row, out=c)
            np.copyto(self._copy, a)
        return time.perf_counter() - t0

    def scale(self) -> float:
        """Factor that rescales the interval that just ended; call it right
        after the interval, which the previous call (or the constructor)
        immediately preceded."""
        before = self.reference_s[-1]
        self.reference_s.append(self._reference())
        return NOMINAL_REF_S / ((before + self.reference_s[-1]) / 2.0)
