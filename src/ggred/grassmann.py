"""Exact arithmetic in a real Grassmann algebra, Berezin integrals, Pfaffians.

Elements are stored sparsely as {generator-subset bitmask: coefficient}.
Generators are indexed 0..n-1; a set bit i in a mask stands for theta_i, and
the stored coefficient multiplies the ascending-ordered product
theta_{i1} theta_{i2} ... (i1 < i2 < ...).

A coefficient is a float or a ``dual.Batch`` (one float per node).  A word
is kept while it is nonzero at some node; adding an exact zero is exact and
products sum in a fixed word order, so each node gets the bits of its own
run (only a node's inf or NaN times a word zero there differs: NaN).

Berezin convention: integrals are iterated left derivatives applied from the
innermost (last listed) measure outwards, so that for a single pair
``integrate(e, [p, m])`` maps theta_m theta_p -> 1.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

from . import dual
from .dual import Batch
from .errors import AsymmetryError, OddDimensionError, UnknownGeneratorError

MAX_GENERATORS = 16


def _parity_above(mask: int) -> int:
    """Bit j set iff ``mask`` has an odd number of set bits above bit j.

    A suffix XOR by doubling shifts; the four shifts cover
    ``MAX_GENERATORS`` = 16 bits.
    """
    above = mask >> 1
    above ^= above >> 1
    above ^= above >> 2
    above ^= above >> 4
    above ^= above >> 8
    return above


@functools.lru_cache(maxsize=None)
def _word_key(mask: int) -> tuple:
    """A word's generators, ascending: words sort as curvature_quartic
    meets them (theta_0 theta_1, theta_0 theta_2, ..., theta_1 theta_2)."""
    return tuple(i for i in range(MAX_GENERATORS) if mask >> i & 1)


def _real_scalar(x):
    """A real scalar operand (0-d arrays included) as a float, or a Batch."""
    if type(x) is float or type(x) is Batch:
        return x
    if isinstance(x, np.ndarray) and x.ndim == 0:
        x = x[()]
    if isinstance(x, numbers.Real):
        return float(x)
    raise TypeError(
        f"cannot combine a Grassmann element with {type(x).__name__}")


def _nonzero(c) -> bool:
    """Whether a coefficient is nonzero at some node (a NaN counts)."""
    return bool(c.v.any()) if type(c) is Batch else c != 0.0


def _accumulate(out: dict, m: int, c):
    """out[m] += c, the word dropped where the sum is zero at every node."""
    v = out.get(m, 0.0) + c
    if _nonzero(v):
        out[m] = v
    else:
        out.pop(m, None)


class GrassmannElement:
    """A real element of the Grassmann algebra on ``n`` generators."""

    __slots__ = ("n", "coeffs")
    __array_ufunc__ = None      # ndarray * G defers to G; Batch * G raises

    def __init__(self, n: int, coeffs: dict[int, float] | None = None):
        if not 0 < n <= MAX_GENERATORS:
            raise ValueError(f"generator count must be in 1..{MAX_GENERATORS}")
        self.n = n
        self.coeffs = dict(coeffs) if coeffs else {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, n: int, value: float) -> "GrassmannElement":
        return cls(n, {0: v} if _nonzero(v := _real_scalar(value)) else {})

    @classmethod
    def generator(cls, n: int, i: int) -> "GrassmannElement":
        if not 0 <= i < n:
            raise UnknownGeneratorError(f"generator {i} outside 0..{n - 1}")
        return cls(n, {1 << i: 1.0})

    @classmethod
    def from_terms(cls, n: int, masks, coeffs) -> "GrassmannElement":
        """sum_k coeffs[k] * theta^masks[k], summed in the order given.

        Equals adding the one-term elements one by one, exact zeros pruned.
        """
        out: dict[int, float] = {}
        for m, c in zip(masks, coeffs):
            _accumulate(out, m, c)
        return cls(n, out)

    def copy(self) -> "GrassmannElement":
        return GrassmannElement(self.n, self.coeffs)

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mixing algebras of different generator counts")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            other = GrassmannElement.scalar(self.n, other)
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            _accumulate(out, m, c)
        return GrassmannElement(self.n, out)

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.n, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            s = _real_scalar(other)
            # a product can underflow to zero; only nonzero entries are kept
            return GrassmannElement(
                self.n, {m: v for m, c in self.coeffs.items()
                         if _nonzero(v := c * s)})
        self._check(other)
        out: dict[int, float] = {}
        bitems = list(other.coeffs.items())
        # word m gets one term per word A of self (B = m - A), in the order
        # of _word_key: a node's sum does not depend on which words other
        # nodes keep, or on the order they were stored in
        for ma in sorted(self.coeffs, key=_word_key):
            ca = self.coeffs[ma]
            # merging theta_A theta_B into ascending order passes each
            # generator of B over the generators of A above it
            above = _parity_above(ma)
            for mb, cb in bitems:
                if ma & mb:
                    continue
                m = ma | mb
                t = ca * cb
                if (above & mb).bit_count() & 1:
                    t = -t
                _accumulate(out, m, t)
        return GrassmannElement(self.n, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, GrassmannElement):
            return self.n == other.n and \
                not np.any((self - other).max_abs())
        return NotImplemented

    # -- structure ---------------------------------------------------------

    @property
    def body(self) -> float:
        """The degree-0 part."""
        return self.coeffs.get(0, 0.0)

    def soul(self) -> "GrassmannElement":
        """The nilpotent (degree > 0) part."""
        return GrassmannElement(
            self.n, {m: c for m, c in self.coeffs.items() if m})

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self.coeffs}

    def is_even(self) -> bool:
        return not any(m.bit_count() & 1 for m in self.coeffs)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self.coeffs)

    def max_abs(self):
        """The largest |coefficient| at each node (one number for float
        coefficients), 0.0 for none and NaN where any is NaN."""
        vals = (c.v if type(c) is Batch else c for c in self.coeffs.values())
        return np.max(np.abs(np.broadcast_arrays(0.0, *vals)), axis=0)

    def max_abs_degree(self, k: int) -> float:
        return GrassmannElement(self.n, {
            m: c for m, c in self.coeffs.items() if m.bit_count() == k
        }).max_abs()

    def exp(self) -> "GrassmannElement":
        """exp of an even element (body handled exactly, soul nilpotent)."""
        if not self.is_even():
            raise ValueError("exp is defined here for even elements only")
        nil = self.soul()
        out = term = GrassmannElement.scalar(self.n, 1.0)
        for k in range(1, self.n // 2 + 1):
            term = term * nil * (1.0 / k)
            if not term.coeffs:
                break
            out = out + term
        return out * dual.exp(self.body)

    def __repr__(self):
        if not self.coeffs:
            return "G(0)"
        bits = []
        for m in sorted(self.coeffs):
            gens = "".join(f"t{i}" for i in range(self.n) if m >> i & 1)
            bits.append(f"{self.coeffs[m]:+.6g}*{gens or '1'}")
        return "G(" + " ".join(bits) + ")"


def berezin_integral(e: GrassmannElement, generators) -> GrassmannElement:
    """Iterated Berezin integral over the listed generators.

    Measures apply innermost-last: ``berezin_integral(e, [p, m])`` equals
    ``int dtheta_p [ int dtheta_m e ]``, so theta_m theta_p integrates to 1.
    """
    gens = list(generators)
    if len(set(gens)) != len(gens):
        raise UnknownGeneratorError("repeated generator in Berezin measure")
    out = e
    for g in reversed(gens):
        if not 0 <= g < e.n:
            raise UnknownGeneratorError(f"generator {g} outside algebra")
        bit = 1 << g
        new: dict[int, float] = {}
        for m, c in out.coeffs.items():
            if not m & bit:
                continue
            sign = -1.0 if (m & (bit - 1)).bit_count() & 1 else 1.0
            _accumulate(new, m & ~bit, sign * c)
        out = GrassmannElement(e.n, new)
    return out


def quadratic_form(n: int, a: np.ndarray) -> GrassmannElement:
    """(1/2) sum_ij A_ij theta_i theta_j for antisymmetric A."""
    out: dict[int, float] = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = 0.5 * (a[i, j] - a[j, i])
            if c != 0.0:
                out[(1 << i) | (1 << j)] = c
    return GrassmannElement(n, out)


def pfaffian(a: np.ndarray) -> float:
    """Pf(A) of an antisymmetric A of at most ``MAX_GENERATORS`` rows by
    first-row expansion, each sub-Pfaffian once per call, keyed by the
    bitmask of its rows.  Pf(A)^2 = det(A)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise AsymmetryError("pfaffian needs a square matrix")
    if n > MAX_GENERATORS:
        raise ValueError(f"pfaffian needs at most {MAX_GENERATORS} rows")
    if n == 0:
        return 1.0
    if n % 2 == 1:
        raise OddDimensionError("pfaffian needs even dimension")
    scale = np.max(np.abs(a)) or 1.0
    if not np.max(np.abs(a + a.T)) <= 1e-8 * scale:
        raise AsymmetryError("matrix is not antisymmetric")
    rows = a.tolist()
    memo: dict[int, float] = {}

    def minor(mask: int, idx: list) -> float:
        """Expansion of the minor on rows ``idx`` (bitmask ``mask``)."""
        first, rest = idx[0], idx[1:]
        if len(rest) == 1:
            return rows[first][rest[0]]
        total = 0.0
        for k, j in enumerate(rest):
            sub = mask & ~(1 << first | 1 << j)
            if sub not in memo:
                memo[sub] = minor(sub, [i for i in rest if i != j])
            total += (-1.0 if k % 2 else 1.0) * rows[first][j] * memo[sub]
        return total
    return minor((1 << n) - 1, list(range(n)))


def fermionic_gaussian_berezin(a: np.ndarray) -> float:
    """int exp((1/2) psi^T A psi) dpsi_n ... dpsi_1 = Pf(A), evaluated
    through the Grassmann engine (slow path).

    Used as an independent cross-check of the Pfaffian recursion: the measure
    dpsi_n ... dpsi_1 applies dpsi_1 innermost, i.e. generators listed in
    descending order here.
    """
    n = a.shape[0]
    if n % 2 == 1:
        raise OddDimensionError("even dimension required")
    gauss = quadratic_form(n, np.asarray(a, dtype=float)).exp()
    out = berezin_integral(gauss, list(range(n - 1, -1, -1)))
    return out.body
