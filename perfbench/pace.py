"""Machine-speed calibration for timings taken on a shared host.

On a small shared virtual machine the processor's speed drifts by up to
1.6x, in states that last from seconds to tens of seconds, and the drift
slows interpreted code, numpy, LAPACK and LP solves alike.  A timing
reported as measured then spreads with the machine, not with the program.
(Import time is the exception: it did not follow the kernel below, so the
benchmark does not scale set-up time.)

``Sampler`` corrects for it.  While a timed interval runs, an interval timer
(``SIGALRM``) runs a small fixed calibration kernel about every
``INTERVAL_S`` seconds, in the timed thread, and records how long the kernel
took.  The interval's seconds, minus the time spent in the kernel, are then
scaled by ``reference / trimmed mean of the kernel's times``: they become
seconds at the speed at which the kernel takes its reference time.  The
kernel is code of this benchmark, never of the program, so only the
program's own work moves the scaled figure.

Each sample runs the kernel twice and times the second call, so that what
the program left in the caches does not enter the figure.  Signals reach
Python between bytecodes, so a sample that falls due during a long call into
C is taken when it returns.  The kernel is also sampled just before and just
after the interval, so short intervals still get samples.
"""

import signal
import time

INTERVAL_S = 0.1
TRIM = 0.1  # share of samples dropped at each end before averaging

# Reference time of the kernel, in seconds.  It is a constant, so that
# scaled figures compare across runs and commits; its value only sets the
# scale, and was chosen so that on a 2-vCPU KVM guest (Intel Xeon,
# Python 3.11.7, numpy 2.4.6) scaled seconds are close to measured ones.
REFERENCE_S = 0.00100

_MATRIX = None


def kernel():
    """Integer arithmetic and dict stores, small matrix products and
    generator sums: the kind of work the pipeline does."""
    global _MATRIX
    if _MATRIX is None:
        import numpy as np

        _MATRIX = np.random.default_rng(0).standard_normal((120, 120))
    acc = 0
    table = {}
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 63] = acc * 0.5
    s = float(acc)
    for _ in range(15):
        s += float((_MATRIX @ _MATRIX[:, :8]).sum())
        s += sum(j * j for j in range(300))
    return s


def trimmed_mean(values, trim=TRIM):
    ordered = sorted(values)
    k = int(len(ordered) * trim)
    kept = ordered[k:len(ordered) - k] or ordered
    return sum(kept) / len(kept)


class Sampler:
    """Context manager that samples ``kernel`` during the ``with`` block.

    After the block: ``seconds`` is the block's wall time without the
    kernel's, ``samples`` the kernel's times and ``scaled()`` ``seconds`` at
    the reference speed.  Main thread only; the previous ``SIGALRM`` handler
    and timer are restored on exit.
    """

    def __init__(self):
        self.samples = []
        self.in_kernel_s = 0.0
        self.seconds = None
        self._previous = None

    def _sample(self):
        kernel()  # untimed, so that the timed call finds its caches warm
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._sample()
        self.in_kernel_s += time.perf_counter() - t0

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - self.in_kernel_s
        self._sample()
        return False

    def scaled(self):
        return self.seconds * REFERENCE_S / trimmed_mean(self.samples)
