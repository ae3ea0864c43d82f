"""Forward-mode dual numbers, nestable to arbitrary depth.

Every seeding of a derivative direction allocates a fresh level tag, so
derivatives taken inside another derivative (metric jets under a horizontal
lift under a quotient jet, and so on) never confuse their infinitesimals.
Scenario fields must use the math functions exported here (``sin``, ``cos``,
...) instead of ``numpy`` ufuncs so that dual numbers flow through them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import MathDomainError

_LEVELS = itertools.count(1)


def fresh_level() -> int:
    """Allocate a level tag for a new derivative direction."""
    return next(_LEVELS)


class Dual:
    """A truncated first-order expansion ``val + eps * d(level)``.

    ``val`` and ``eps`` may themselves be ``Dual`` instances of *other*
    levels, which is how second and higher derivatives are obtained.
    """

    __slots__ = ("val", "eps", "level")

    def __init__(self, val, eps, level: int):
        self.val = val
        self.eps = eps
        self.level = level

    # -- arithmetic -------------------------------------------------------

    def __add__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.level == self.level:
                return Dual(self.val + o.val, self.eps + o.eps, self.level)
            if o.level > self.level:
                return Dual(self + o.val, o.eps, o.level)
        return Dual(self.val + o, self.eps, self.level)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps, self.level)

    def __sub__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        return self + (-o)

    def __rsub__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.level == self.level:
                return Dual(self.val * o.val,
                            self.val * o.eps + self.eps * o.val, self.level)
            if o.level > self.level:
                return Dual(self * o.val, self * o.eps, o.level)
        return Dual(self.val * o, self.eps * o, self.level)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        if isinstance(o, Dual):
            if o.level == self.level:
                inv = 1.0 / o.val
                return Dual(self.val * inv,
                            (self.eps - self.val * inv * o.eps) * inv,
                            self.level)
            if o.level > self.level:
                return o.__rtruediv__(self)
        inv = 1.0 / o
        return Dual(self.val * inv, self.eps * inv, self.level)

    def __rtruediv__(self, o):
        if isinstance(o, np.ndarray):
            return NotImplemented
        # o / self with o constant relative to self.level
        inv = 1.0 / self.val
        val = o * inv
        return Dual(val, -val * inv * self.eps, self.level)

    def __pow__(self, p):
        if isinstance(p, Dual):
            return exp(log(self) * p)
        if p == 2:
            return self * self
        return Dual(_libm(pow, self.val, p),
                    p * self.val ** (p - 1) * self.eps, self.level)

    def __rpow__(self, base):
        return exp(self * _libm(math.log, base))

    # -- comparisons act on the numeric body ------------------------------

    def __lt__(self, o):
        return body(self) < body(o)

    def __le__(self, o):
        return body(self) <= body(o)

    def __gt__(self, o):
        return body(self) > body(o)

    def __ge__(self, o):
        return body(self) >= body(o)

    def __abs__(self):
        return self if body(self) >= 0 else -self

    def __repr__(self):
        return f"Dual({self.val!r}, {self.eps!r}, L{self.level})"


def _elementwise(f):
    def op(self, o):
        if isinstance(o, (Dual, np.ndarray)):
            return NotImplemented
        v = f(self.v, o.v if type(o) is Batch else o)
        out = object.__new__(Batch)     # the ufunc's float array as it is
        out.v = v if type(v) is np.ndarray else np.asarray(v)   # 0-d
        return out
    return op


class Batch:
    """One float per node of a point batch; a scalar to numpy and to ``Dual``.

    Arithmetic is elementwise, and ``**`` and this module's math functions
    call libm node by node, so each node gets the bits of the scalar path.
    Comparisons and truth tests raise ``TypeError`` (no batch form)."""

    __slots__ = ("v",)
    __add__ = __radd__ = _elementwise(np.add)
    __sub__ = _elementwise(np.subtract)
    __rsub__ = _elementwise(lambda a, b: b - a)
    __mul__ = __rmul__ = _elementwise(np.multiply)
    __truediv__ = _elementwise(np.divide)
    __rtruediv__ = _elementwise(lambda a, b: b / a)

    def __init__(self, v):
        self.v = np.asarray(v, dtype=float)

    def __bool__(self, *_):
        raise TypeError("a Batch has no order and no truth value")

    __lt__ = __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __bool__

    def __neg__(self):
        return Batch(-self.v)

    def __format__(self, spec):
        return "[" + " ".join(format(x, spec) for x in self.v.flat) + "]"

    def __pow__(self, p):
        return NotImplemented if isinstance(p, Dual) else _libm(pow, self, p)

    def __rpow__(self, base):
        return _libm(pow, base, self)


def _libm(f, *args, node=None):
    """libm's ``f``: on floats, a math domain error (or a complex ``pow``)
    as a MathDomainError at ``node``; with Batch arguments, node by node
    (floats are shared), an error naming the first node that raises it."""
    if Batch not in map(type, args):
        try:
            out = f(*args)
        except ValueError as exc:
            raise MathDomainError(f"{f.__name__}{args}: {exc}", node) from exc
        if type(out) is complex:
            raise MathDomainError(f"{f.__name__}{args}: complex result", node)
        return out
    cols = [a.v.tolist() if isinstance(a, Batch) else itertools.repeat(a)
            for a in args]
    try:
        return Batch(list(map(f, *cols)))
    except (ValueError, TypeError):     # a complex entry is a TypeError
        for k, xs in enumerate(zip(*cols)):
            _libm(f, *xs, node=k)
        raise


BATCH = 64   # nodes per batch point: one Euler slab at order 8


def chunks(arrays, *groups):
    """Rows of ``arrays``, each group of row indices (all rows if none) in
    runs of at most BATCH."""
    groups = groups or (np.arange(len(arrays[0])),)
    return [tuple(a[g[k:k + BATCH]] for a in arrays)
            for g in groups for k in range(0, len(g), BATCH)]


def batched(fn, chunks):
    """Yield, node by node, ``fn``'s (N,) values on chunks ``(points, *args)``
    (node axis first), each as one batch point."""
    for points, *args in chunks:
        yield from fn([Batch(x) for x in points.T], *args)


def per_node(fn):
    """``fn`` with a batch form: where ``fn`` raises ``TypeError`` at a batch
    point (it compares a coordinate or calls ``math``), ``fn`` at each node,
    every Batch leaf of a Dual tree read as that node's float, the nodes'
    values stacked by :func:`_stack`.  A ``batch_form`` function is kept."""
    def call(coords):
        try:
            return fn(coords)
        except TypeError:
            pass
        out = []
        try:
            for k in range(nodes(coords)):
                out.append(np.asarray(fn([_at_node(x, k) for x in coords]),
                                      dtype=object))
        except MathDomainError as exc:
            exc.node = len(out)     # libm saw that node's floats only
            raise
        return np.apply_along_axis(_stack, -1, np.stack(out, -1))[()]
    call.batch_form = True
    return fn if getattr(fn, "batch_form", False) else call


def _stack(vals):
    """The nodes' values as one, Batch leaves through the Dual levels (a
    value below a level read as that level's constant)."""
    lev = max((v.level for v in vals if isinstance(v, Dual)), default=0)
    if not lev:
        return Batch(list(vals))
    return Dual(*(_stack(p) for p in zip(*(_parts(v, lev) for v in vals))),
                lev)


def _parts(x, lev):
    """(val, eps) of ``x`` at level ``lev``, or (x, 0.0): a value below
    that level is its constant."""
    return (x.val, x.eps) if isinstance(x, Dual) and x.level == lev \
        else (x, 0.0)


def _at_node(x, k):
    """``x`` at node ``k``: each Batch leaf of a Dual tree as a float."""
    if isinstance(x, Dual):
        return Dual(_at_node(x.val, k), _at_node(x.eps, k), x.level)
    return x.v[k].item() if isinstance(x, Batch) else x


def body(x):
    """Strip all dual layers, returning the underlying float."""
    while isinstance(x, Dual):
        x = x.val
    return x


def sin(x):
    if isinstance(x, Dual):
        return Dual(sin(x.val), cos(x.val) * x.eps, x.level)
    return _libm(math.sin, x)


def cos(x):
    if isinstance(x, Dual):
        return Dual(cos(x.val), -sin(x.val) * x.eps, x.level)
    return _libm(math.cos, x)


def tan(x):
    return sin(x) / cos(x)


def exp(x):
    if isinstance(x, Dual):
        e = exp(x.val)
        return Dual(e, e * x.eps, x.level)
    return _libm(math.exp, x)


def log(x):
    if isinstance(x, Dual):
        return Dual(log(x.val), x.eps / x.val, x.level)
    return _libm(math.log, x)


def sqrt(x):
    if isinstance(x, Dual):
        s = sqrt(x.val)
        return Dual(s, x.eps / (2.0 * s), x.level)
    return _libm(math.sqrt, x)


def asin(x):
    if isinstance(x, Dual):
        return Dual(asin(x.val), x.eps / sqrt(1.0 - x.val * x.val), x.level)
    return _libm(math.asin, x)


def acos(x):
    if isinstance(x, Dual):
        return Dual(acos(x.val), -x.eps / sqrt(1.0 - x.val * x.val), x.level)
    return _libm(math.acos, x)


def atan(x):
    if isinstance(x, Dual):
        return Dual(atan(x.val), x.eps / (1.0 + x.val * x.val), x.level)
    return _libm(math.atan, x)


def atan2(y, x):
    lev = max((v.level for v in (y, x) if isinstance(v, Dual)), default=0)
    if lev:
        (yv, ye), (xv, xe) = _parts(y, lev), _parts(x, lev)
        denom = xv * xv + yv * yv
        return Dual(atan2(yv, xv), (xv * ye - yv * xe) / denom, lev)
    return _libm(math.atan2, y, x)


def hypot(x, y):
    return sqrt(x * x + y * y)


# -- derivative extraction over array-valued functions ---------------------

def _split(out, level):
    """Split an array-like of mixed floats/duals into (value, eps@level)."""
    vals = np.array(out, dtype=object)      # a copy, own-level duals replaced
    eps = np.empty(vals.shape, dtype=object)
    eps.fill(0.0)
    flat_v, flat_e = vals.reshape(-1), eps.reshape(-1)
    for i, e in enumerate(flat_v.tolist()):
        if isinstance(e, Dual) and e.level == level:
            flat_v[i] = e.val
            flat_e[i] = e.eps
    return vals, eps


def nodes(point) -> int:
    """Nodes of a point: the size of its Batch coordinate bodies, or 1 (a
    plain point is a one-node batch)."""
    for x in map(body, point):
        if isinstance(x, Batch):
            return x.v.size
    return 1


def entries(arr):
    """The inverse of ``tighten(., size)``: the Batch entries of a float
    array with a leading node axis, as an object array."""
    arr = np.asarray(arr, dtype=float)
    out = np.empty(arr.shape[1:], dtype=object)
    out.ravel()[:] = [Batch(v) for v in arr.reshape(len(arr), -1).T]
    return out


def tighten(arr, size: int = 0):
    """Return a float array when no duals remain, object array otherwise;
    with ``size`` nodes, Batch (and float) entries stack on a leading axis.
    A None entry raises TypeError where numpy would read it as NaN."""
    a = np.asarray(arr)
    try:
        out = a.astype(float)
    except (TypeError, ValueError):
        if size:
            out = np.empty((size, a.size))
            for i, e in enumerate(a.ravel().tolist()):
                out[:, i] = e.v if isinstance(e, Batch) else float(e)
            return out.reshape((size,) + a.shape)
        if a.dtype == object and any(isinstance(e, (Dual, Batch))
                                     for e in a.ravel().tolist()):
            return a
        raise
    if a.dtype == object and None in a.ravel().tolist():    # floats only
        raise TypeError("a None entry has no float value")
    return np.repeat(out[None], size, 0) if size else out  # shared by nodes


def partial(fn, point, axis):
    """First partial derivative of array-valued ``fn`` along one axis.

    Returns (value, derivative) as arrays; works when ``point`` itself
    carries dual entries from an enclosing derivative.
    """
    level = fresh_level()
    coords = list(point)
    coords[axis] = Dual(coords[axis], 1.0, level)
    vals, eps = _split(fn(coords), level)
    return tighten(vals), tighten(eps)


def gradient(fn, point):
    """All first partials, stacked along a leading derivative axis (a
    scalar function's object entries too, not as 0-d arrays)."""
    return np.stack([partial(fn, point, a)[1] for a in range(len(point))])
