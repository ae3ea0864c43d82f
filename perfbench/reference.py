"""A fixed reference computation that tracks how fast this machine runs now.

On a shared machine the same ggred pass can take 4.4 s in one minute and
6.9 s in the next, and the slow and fast spells last minutes, longer than
a run.  Timings are therefore reported at a reference speed::

    seconds = raw seconds * NOMINAL_S / reference seconds measured alongside

``Sampler`` takes reference samples on a timer while the workload runs, so
that they are spread evenly over its time.

The reference must slow down by the same factor as ggred does.  A plain
arithmetic loop does not: between spells in which two ggred checks slowed
1.48x and 1.50x, it slowed 1.70x, while ggred's own order-2 jet slowed
1.51x.  So the reference is such a jet: the s3xt2 metric differentiated
twice with level-tagged dual numbers on object arrays.  In a later
measurement this jet slowed 1.40x where a ggred check slowed 1.38x.  It is a frozen copy of
that technique, written here so that a change to ``src/ggred`` cannot move
it.  The collector is off while it runs, so the size of ggred's heap does
not reach it.
"""

import gc
import itertools
import math
import signal
from time import perf_counter

import numpy as np

NOMINAL_S = 5e-4     # reference seconds that define the reference speed
REPEATS = 8
INTERVAL_S = 0.25    # timer period of ``Sampler``
POINT = (1.1, 2.0, 3.0, 1.5, 2.5)

_levels = itertools.count(1)


class _Dual:
    __slots__ = ("val", "eps", "level")

    def __init__(self, val, eps, level):
        self.val = val
        self.eps = eps
        self.level = level

    def __add__(self, o):
        if isinstance(o, _Dual):
            if o.level == self.level:
                return _Dual(self.val + o.val, self.eps + o.eps, self.level)
            if o.level > self.level:
                return _Dual(self + o.val, o.eps, o.level)
        return _Dual(self.val + o, self.eps, self.level)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            if o.level == self.level:
                return _Dual(self.val * o.val,
                             self.val * o.eps + self.eps * o.val, self.level)
            if o.level > self.level:
                return _Dual(self * o.val, self * o.eps, o.level)
        return _Dual(self.val * o, self.eps * o, self.level)

    __rmul__ = __mul__


def _sin(x):
    if isinstance(x, _Dual):
        return _Dual(_sin(x.val), _cos(x.val) * x.eps, x.level)
    return math.sin(x)


def _cos(x):
    if isinstance(x, _Dual):
        return _Dual(_cos(x.val), _sin(x.val) * x.eps * -1.0, x.level)
    return math.cos(x)


def _metric(c):
    """Round S^3 in Euler angles times a flat T^2."""
    out = np.empty((5, 5), dtype=object)
    out[:] = 0.0
    cth = _cos(c[0]) * 0.25
    out[0, 0] = out[1, 1] = out[2, 2] = 0.25
    out[1, 2] = out[2, 1] = cth
    out[3, 3] = out[4, 4] = 1.0
    return out


def _eps(out, level):
    """The level-``level`` infinitesimal part of every entry."""
    arr = np.asarray(out, dtype=object)
    eps = np.empty(arr.shape, dtype=object)
    flat = eps.ravel()
    for i, e in enumerate(arr.ravel()):
        flat[i] = e.eps if isinstance(e, _Dual) and e.level == level else 0.0
    return eps


def _partial(fn, point, axis):
    level = next(_levels)
    coords = list(point)
    coords[axis] = _Dual(coords[axis], 1.0, level)
    return _eps(fn(coords), level)


def _jet(point):
    """All first partials and all n^2 nested second partials."""
    n = len(point)
    d1 = [_partial(_metric, point, a) for a in range(n)]
    d2 = [[_partial(lambda c, a=a: _partial(_metric, c, a), point, b)
           for b in range(n)] for a in range(n)]
    return d1, d2


def sample():
    """Mean seconds of one reference jet, over ``REPEATS`` runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(REPEATS):
            _jet(POINT)
        return (perf_counter() - t0) / REPEATS
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference samples on a wall-clock timer, inside a ``with`` block.

    ``samples`` holds the sampled seconds and ``spent_s`` the total time
    the samples took, which the caller subtracts from what it timed.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent_s += perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
