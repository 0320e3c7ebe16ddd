"""Host-speed probe: a fixed kernel, timed all through a run.

The benchmark runs on a share of a machine whose throughput drifts: the
same work takes up to half as long again from one second to the next, in
phases of seconds to minutes, so one seed's run can take 30% longer than
the next seed's for the same work.  Timing CPU time does not help (the
process keeps its CPU; each CPU second does less).  So while a pass runs,
a ``Sampler`` interrupts it every ``INTERVAL_S`` seconds (SIGALRM, handled
between Python bytecodes, so never inside a numpy call) and times a fixed
kernel that never calls avcqc.  A span of the pass is scaled by

    REFERENCE_S / mean(kernel times sampled from SMOOTH_S before the span
                       to SMOOTH_S after it)

and the time spent in the handler is taken out of the span first.  A time
reported this way is the time the span would have taken at the speed the
kernel shows at ``REFERENCE_S``: a change to avcqc moves it as it moves the
raw time, and a slow or fast phase of the host moves the kernel with the
jobs and cancels out.  The kernel mixes what the workloads spend their time
on: interpreted Python, numpy calls on small arrays, LAPACK
eigendecompositions of 2x2 to 4x4 stacks and a 96x96 complex product.
"""

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# Typical kernel time on the calibration host (Intel Xeon, Sapphire Rapids
# class, 2 vCPUs, numpy 2.4 on scipy-openblas, one BLAS thread); a constant,
# so scaled times compare across runs and commits.
REFERENCE_S = 0.0050
INTERVAL_S = 0.1
SMOOTH_S = 0.3      # short spans take the host's speed from the samples around them

_rng = np.random.default_rng(20241)
_STACKS = []
for _d in (2, 3, 4):
    _g = _rng.standard_normal((48, _d, _d)) + 1j * _rng.standard_normal((48, _d, _d))
    _STACKS.append(_g @ _g.conj().swapaxes(-1, -2))
_BIG = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_ROWS = _rng.random((64, 6))


def _kernel():
    acc = 0.0
    for _ in range(4):
        for stack in _STACKS:
            lam = np.linalg.eigvalsh(stack)
            acc += float(np.log2(np.clip(lam, 1e-18, None)).sum())
            _, vec = np.linalg.eigh(stack[:8])
            acc += float(np.einsum("kij,kij->", vec, vec.conj()).real)
    acc += float(np.abs(np.trace(_BIG @ _BIG)))
    for _ in range(40):
        rows = np.sort(_ROWS, axis=1)[:, ::-1]
        acc += float(np.maximum(np.cumsum(rows, axis=1) - 1.0, 0.0).sum())
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    return acc + total


def sample():
    """Seconds one run of the kernel takes now."""
    t = perf_counter()
    _kernel()
    return perf_counter() - t


def median_sample():
    """Kernel seconds now: the median of three runs."""
    return statistics.median(sample() for _ in range(3))


class Sampler:
    """Times the kernel every ``INTERVAL_S`` seconds while active.

    ``at`` and ``kernel`` hold each sample's start time and kernel seconds;
    ``spent`` is the handler's total time, for taking it out of the spans.
    """

    def __init__(self):
        self.at = []
        self.kernel = []
        self.spent = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t = perf_counter()
        self.kernel.append(sample())
        self.at.append(t)
        self.spent += perf_counter() - t

    def __enter__(self):
        self.at.append(perf_counter())
        self.kernel.append(sample())
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        # one more sample after the last span, with the timer off
        self.at.append(perf_counter())
        self.kernel.append(sample())
        return False

    def scale(self, start, end, raw_s):
        """``raw_s`` of the span [start, end] at the reference speed."""
        lo = max(bisect.bisect_left(self.at, start - SMOOTH_S) - 1, 0)
        hi = bisect.bisect_right(self.at, end + SMOOTH_S) + 1
        window = self.kernel[lo:hi]
        return raw_s * REFERENCE_S * len(window) / sum(window)
