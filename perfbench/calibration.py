"""Host-speed sampling: CPU times that do not swing with the shared host.

On a shared host the same single-threaded work runs at speeds that differ
by up to 2x, and the host switches between them within a fraction of a
second, so CPU time does not hide it: contention for the core and its
memory slows the work itself.  The harness therefore runs a small fixed
reference kernel, which calls nothing in pdrwm, every ``interval`` of CPU
time *while an operation runs* (a profiling timer interrupts it), and once
more right after it.  The operation's own CPU time, with the kernel's
taken out, is multiplied by the mean speed of those samples relative to
the kernel's nominal time.  The result reads as CPU seconds on a host that
stays at the nominal speed.  Samples taken around an operation instead of
during it did not track an operation of several seconds.

Each workload uses the kernel whose work is of the same kind as its own
(``Workload.kernel``): a slowdown that hits per-call interpreter work does
not hit memory-bound dense algebra to the same degree.

The kernels are timed with the thread's CPU clock: the process CPU clock
read inside the timer's signal handler did not advance on the reference
machine.  pdrwm runs on one thread here (one BLAS thread), so the thread's
CPU time is the process's.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

_SMALL = np.zeros(1)
#: the memory kernel's two 16 MB arrays, made on its first run so that a
#: workload on the interpreter kernel does not hold them in its peak RSS
_STREAM: list[np.ndarray] = []


def interpreter_kernel() -> None:
    """Per-call Python and numpy dispatch on tiny arrays, like the
    per-point work of targets, fields, proposals and chain."""
    x = _SMALL
    for _ in range(200):
        x = np.exp(-np.abs(x + 0.1)) * 0.5


def memory_kernel() -> None:
    """Streams arrays larger than the caches, like the oracle's dense
    n x n builds and matrix-vector products."""
    if not _STREAM:
        _STREAM.extend((np.ones(2_000_000), np.empty(2_000_000)))
    np.multiply(_STREAM[0], 1.0001, out=_STREAM[1])


#: kernel name -> (kernel, nominal CPU seconds of one run: a round figure
#: between the fast and the slow speed of the reference machine's host)
KERNELS = {
    "interpreter": (interpreter_kernel, 0.001),
    "memory": (memory_kernel, 0.005),
}

#: share of an operation's CPU time spent on samples while it runs
SAMPLING_SHARE = 0.05


class Timing:
    """What :meth:`HostSpeed.timing` measured: the operation's own CPU
    seconds and the factor that scales them to the nominal speed."""

    seconds: float = 0.0
    scale: float = 1.0


class HostSpeed:
    """Samples one reference kernel during timed code.  With
    ``enabled=False`` it times the code and leaves the scale at 1."""

    def __init__(self, kernel: str, enabled: bool = True):
        self.kernel, self.nominal = KERNELS[kernel]
        self.enabled = enabled
        self.interval = self.nominal / SAMPLING_SHARE
        self.samples: list[float] = []
        self._spent = 0.0
        if enabled:
            self.kernel()  # warm-up: the first run allocates and faults in
            signal.signal(signal.SIGPROF, self._on_timer)
            # restart, not fail, a system call the timer interrupts
            signal.siginterrupt(signal.SIGPROF, False)

    def _on_timer(self, signum, frame) -> None:
        self._spent += self.sample()

    def sample(self) -> float:
        start = time.thread_time()
        self.kernel()
        seconds = time.thread_time() - start
        self.samples.append(seconds)
        return seconds

    def scale(self, samples: list[float]) -> float:
        """Mean speed of ``samples`` relative to the nominal one.  The mean
        of speeds, not a median, because the host alternates between two
        speeds and the work done is the time spent at each."""
        return statistics.fmean(self.nominal / s for s in samples)

    @contextlib.contextmanager
    def timing(self):
        """Times the ``with`` block; the result is set when it exits, also
        when it raises."""
        t = Timing()
        first, spent = len(self.samples), self._spent
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        start = time.thread_time()
        try:
            yield t
        finally:
            if self.enabled:
                signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            t.seconds = time.thread_time() - start - (self._spent - spent)
            if self.enabled:
                # one sample after the block, so that a block shorter than
                # the interval still has one
                self.sample()
                t.scale = self.scale(self.samples[first:])
