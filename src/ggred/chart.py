"""Coordinate-chart tensor calculus.

Charts are axis-aligned boxes; fields are pure functions from coordinates to
component arrays.  Differentiation is exact (nested forward-mode duals), and
everything downstream (Christoffel symbols, curvature, exterior calculus,
Lie brackets) is assembled from pointwise jets.

Component conventions, used consistently across the package:

* form components are stored fully antisymmetric with no 1/k! factors, and a
  k-form is evaluated on vectors by the plain contraction
  ``omega(X, Y, ...) = omega_{ij..} X^i Y^j ...``;
* the exterior derivative is the alternating coordinate derivative
  ``(d omega)_{i0..ik} = sum_j (-1)^j  d_{ij} omega_{i0..^ij..ik}``;
* the interior product contracts the first slot;
* the lowered curvature array is ``R[i,j,k,l] = g(R(e_i, e_j) e_l, e_k)``
  for the commutator curvature operator
  ``R(X,Y) = grad_X grad_Y - grad_Y grad_X - grad_[X,Y]``, which makes
  ``R[i,j,i,j] > 0`` on a round sphere and satisfies the first Bianchi
  identity ``R[ijkl] + R[jkil] + R[kijl] = 0``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dual
from .errors import (DegreeError, DomainError, EvaluationError,
                     MathDomainError, RankError, SingularMetricError)

EPS_ID = 1e-8          # tolerance for pointwise algebraic identities
DOMAIN_MARGIN = 1e-3   # sampled points stay this fraction of each axis inside
PIVOT_RTOL = 1e-12     # a pivot <= this share of max |entry| is singular


@dataclass(frozen=True)
class Chart:
    """An axis-aligned coordinate box in R^dim."""

    name: str
    lower: tuple
    upper: tuple

    def __post_init__(self):
        if len(self.lower) != len(self.upper) or not self.lower:
            raise ValueError("chart bounds must be non-empty and equal length")
        if not all(l < u for l, u in zip(self.lower, self.upper)):
            raise ValueError(f"chart {self.name}: need lower < upper per axis")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def require_inside(self, point):
        """Raise DomainError naming the first node of the point outside the
        chart, every node tested at once (a batch point's coordinates may
        carry dual layers)."""
        nodes = dual.tighten(list(map(dual.body, point)), dual.nodes(point))
        inside = len(point) == self.dim and np.all(
            (nodes > self.lower) & (nodes < self.upper), axis=1)
        if not np.all(inside):
            raise DomainError(f"{_at(point, int(np.argmin(inside)))} outside "
                              f"chart {self.name!r}")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Seeded uniform draws strictly inside the domain."""
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        pad = DOMAIN_MARGIN * (hi - lo)
        return rng.uniform(lo + pad, hi - pad, size=(n, self.dim))


@dataclass(frozen=True)
class Valence:
    """Tensor slot signature: cov lower slots, con upper slots."""

    cov: int = 0
    con: int = 0
    form: bool = False


SCALAR = Valence(0, 0)
VECTOR = Valence(0, 1)
COVECTOR = Valence(1, 0, form=True)
METRIC = Valence(2, 0)

def form_valence(k: int) -> Valence:
    return Valence(k, 0, form=True)


@dataclass(frozen=True)
class ChartField:
    """A tensor-valued function of chart coordinates.

    ``fn`` maps a coordinate sequence (floats or duals) to a component
    array of shape ``(dim,) * (cov + con)``; it must be pure and built from
    the math functions in :mod:`ggred.dual` so derivatives flow through it.
    One with no batch form runs node by node (:func:`ggred.dual.per_node`).
    """

    chart: Chart
    valence: Valence
    fn: Callable[[Sequence], object]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "fn", dual.per_node(self.fn))

    def __call__(self, coords):
        return self.fn(coords)


def batch_field(chart: Chart, valence: Valence, fn, name="") -> ChartField:
    """A library field: ``fn`` is not wrapped, so its TypeErrors propagate."""
    fn.batch_form = True
    return ChartField(chart, valence, fn, name)


@dataclass
class PointJet:
    """Value and partial derivatives of a field at a batch point.

    ``value[N, ...]``, ``d1[N, a, ...]`` and ``d2[N, a, b, ...]`` are the
    component array, its a-th partial and its mixed second partial at node
    N (every (a, b) computed independently, so the symmetry of ``d2`` is a
    genuine check on the dual-number engine); a nested jet has no N.
    """

    point: tuple
    value: np.ndarray
    d1: np.ndarray | None = None
    d2: np.ndarray | None = None


def _require_finite(point, *arrays):
    """EvaluationError at the first non-finite node of arrays, node axis
    first."""
    ok = np.all([np.isfinite(a).reshape(dual.nodes(point), -1).all(1)
                 for a in arrays if a is not None], axis=0)
    if not all(ok):
        raise EvaluationError("field evaluation produced non-finite output "
                              f"at {_at(point, int(np.argmin(ok)))}")


def _at(point, k=None) -> str:
    """Node ``k`` of a point for an error message (with no ``k``, a
    one-node point's node, or "a batch point")."""
    nodes = dual.tighten(list(map(dual.body, point)), dual.nodes(point))
    if k is None and len(nodes) > 1:
        return "a batch point"
    return f"node {k or 0} {tuple(nodes[k or 0].tolist())}"


def differentiate(f, point, order: int = 1, chart: Chart | None = None) -> PointJet:
    """Exact partial derivatives of ``f`` at ``point`` via dual numbers.

    ``f`` may be a ChartField (its chart bounds are then enforced) or any
    pure callable on coordinates.  ``order`` is 1 or 2; second derivatives
    use nested duals with independent level tags.  Every call takes its
    jet afresh: callers that reuse a jet keep it (``genmetric.Geometry``).

    The arrays carry a leading node axis, of one node at a plain point,
    every node checked.  Inside an enclosing jet (dual coordinates) they
    keep ``Dual`` entries and no node axis: a differentiated field body
    takes its inner jets with :func:`ggred.dual.gradient` (no node axis).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    fn = f.fn if isinstance(f, ChartField) else f
    use_chart = chart or (f.chart if isinstance(f, ChartField) else None)
    nested = any(isinstance(x, dual.Dual) for x in point)
    size = dual.nodes(point)
    if use_chart is not None:
        use_chart.require_inside(point)
    try:
        value = np.asarray(fn(list(point)), dtype=object)
        d1 = dual.gradient(fn, list(point))
        rows = []
        for a in range(len(point)) if order == 2 else ():
            def da_fn(coords, _a=a):
                lvl = dual.fresh_level()
                c = list(coords)
                c[_a] = dual.Dual(c[_a], 1.0, lvl)
                _, eps = dual._split(fn(c), lvl)
                return eps
            rows.append(dual.gradient(da_fn, list(point)))
        d2 = np.array(rows) if rows else None
    except (ZeroDivisionError, OverflowError, MathDomainError) as exc:
        at = _at(point, getattr(exc, "node", None))
        raise EvaluationError(
            f"field evaluation failed at {at}: {exc}") from exc
    if not nested:
        value, d1, d2 = (d if d is None else dual.tighten(d, size)
                         for d in (value, d1, d2))
        _require_finite(point, value, d1, d2)
    else:
        bodies = [dual.body(v) for v in value.ravel().tolist()]
        _require_finite(point, dual.tighten(bodies, size))
        value = dual.tighten(value)
    return PointJet(tuple(point), value, d1, d2)


def inverse(m, error=SingularMetricError, what: str = "metric",
            definite: bool = False):
    """The package's one inverse, one per node on leading axes: floats by
    :func:`gauss_jordan`, raising ``error`` (naming ``what``) unless max|m|
    max|m^-1| < 1 / PIVOT_RTOL, which a NaN or infinity fails, and with
    ``definite`` unless the symmetric part has a Cholesky factor (a test
    that only decides); each error names the first failing node of a
    stack.  Dual entries by :func:`solve_linear` on I."""
    if np.asarray(m).dtype == object:
        return solve_linear(m, np.eye(len(m)))
    m = np.asarray(m, dtype=float)
    if definite:
        def factors(x):
            try:
                return np.linalg.cholesky(x) is not None
            except np.linalg.LinAlgError:
                return False
        sym = 0.5 * (m + m.swapaxes(-1, -2))
        if not factors(sym):    # then node by node, for the first that fails
            k = next(k for k, x in enumerate(sym.reshape(-1, *m.shape[-2:]))
                     if not factors(x))
            raise error(f"{what} not positive definite: no Cholesky factor "
                        f"at node {k}")
    inv = gauss_jordan(m)[0]
    with np.errstate(invalid="ignore"):     # inf * 0 is a NaN, which fails
        cond = np.abs(m).max((-2, -1)) * np.abs(inv).max((-2, -1))
    ok = np.ravel(cond < 1.0 / PIVOT_RTOL)
    if not ok.all():
        k = int(np.argmin(ok))
        raise error(f"{what} numerically singular: max|m| max|m^-1| = "
                    f"{np.ravel(cond)[k]:.1e} at node {k}")
    return inv


def gauss_jordan(m):
    """(inverse, determinant) of float matrices, one per node on leading
    axes: Gauss-Jordan in fixed order, each pivot the first largest |entry|
    per node, all elementwise numpy (no LAPACK), so each node keeps the bits
    of its one-node run on every BLAS kernel.  A zero pivot gives inf/NaN."""
    a = np.asarray(m, dtype=float)
    n, rows, det = a.shape[-1], np.arange(a.shape[-1]), np.ones(a.shape[:-2])
    aug = np.concatenate([a, np.broadcast_to(np.eye(n), a.shape)], -1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for col in range(n):
            piv = col + np.abs(aug[..., col:, col]).argmax(-1)
            if (piv != col).any():
                order = np.where(rows == col, piv[..., None],
                                 np.where(rows == piv[..., None], col, rows))
                aug = np.take_along_axis(aug, order[..., None], -2)
            det = np.where(piv != col, -det, det) * aug[..., col, col]
            top = aug[..., col, :] / aug[..., col, col, None]
            aug -= aug[..., :, col, None] * top[..., None, :]
            aug[..., col, :] = top
    return aug[..., n:], det


def solve_linear(m, rhs):
    """x with m x = rhs, ``rhs`` an (n,) vector or an (n, k) block; entries
    are floats, ``dual.Batch`` values or ``Dual`` trees over them.

    The float body of m is factored once (:func:`_factor`, which raises on a
    singular node); each ``Dual`` level is then solved on that one
    factorization by the implicit rule (:func:`_solve_levels`).  Every node
    and every column gets the bits of its own solve; a plain point is one
    node and gets floats."""
    m, rhs = np.asarray(m, dtype=object), np.asarray(rhs, dtype=object)
    n = len(m)
    bodies = [dual.body(v) for v in m.ravel().tolist() + rhs.ravel().tolist()]
    size = dual.nodes(bodies) * any(isinstance(v, dual.Batch) for v in bodies)
    solve = _factor(dual.tighten(bodies[:n * n], size or 1).reshape(-1, n, n))
    return _solve_levels(solve, m, rhs.reshape(n, -1), size).reshape(rhs.shape)


def _solve_levels(solve, m, b, size):
    """x with m x = b, ``solve`` the factorization of m's body: at the top
    ``Dual`` level of m and b, m = m0 + e m1 and b = b0 + e b1, so m0 x0 = b0
    and m0 x1 = b1 - m1 x0 (the implicit rule); with no level left, one
    ``solve``, as ``Batch`` entries over ``size`` nodes (floats at none)."""
    lev = max((v.level for v in m.ravel().tolist() + b.ravel().tolist()
               if isinstance(v, dual.Dual)), default=0)
    if not lev:
        x = solve(dual.tighten(b, size or 1))
        return dual.entries(x) if size else x[0].astype(object)
    split = np.frompyfunc(lambda v: dual._parts(v, lev), 1, 2)
    (m0, m1), (b0, b1) = split(m), split(b)
    x0 = _solve_levels(solve, m0, b0, size)
    x1 = _solve_levels(solve, m0, b1 - m1 @ x0, size)
    # a column that holds no lev, nor does m, keeps x0, as if solved alone
    held = np.frompyfunc(lambda v: getattr(v, "level", 0) == lev, 1, 1)
    own = held(m).any() | held(b).any(0).astype(bool)
    return np.where(own, np.frompyfunc(lambda u, e: dual.Dual(u, e, lev),
                                       2, 1)(x0, x1), x0)


def _factor(a):
    """The solve of (N, n, k) float stacks b by a partial-pivot LU of ``a``,
    float matrices on the same leading node axis, in elementwise numpy: each
    pivot is the first row of largest |entry| per node, and one at most
    PIVOT_RTOL max |entry| there (a NaN one included) raises."""
    floor = PIVOT_RTOL * np.abs(a).max((1, 2))
    nodes, n = np.arange(len(a)), a.shape[-1]
    perm = np.repeat(np.arange(n)[None], len(a), 0)
    for col in range(n):
        mags = np.abs(a[:, col:, col])
        piv, ok = col + mags.argmax(1), mags.max(1) > floor
        if not ok.all():
            raise SingularMetricError("singular linear system at node "
                                      f"{int(np.argmin(ok))}")
        if (piv != col).any():  # whole rows: the multipliers move with them
            for x in (a, perm):
                x[nodes, col], x[nodes, piv] = x[nodes, piv], x[nodes, col]
        low = slice(col + 1, None)
        a[:, low, col] /= a[:, col, col, None]
        a[:, low, low] -= a[:, low, col, None] * a[:, col, None, low]

    def solve(b):   # b's rows in pivot order, elimination, back substitution
        b = b[nodes[:, None], perm]
        for col in range(n - 1):
            b[:, col + 1:] -= a[:, col + 1:, col, None] * b[:, col, None]
        x = np.empty_like(b)
        for r in range(n - 1, -1, -1):
            acc = b[:, r]
            for c in range(r + 1, n):
                acc = acc - a[:, r, c, None] * x[:, c]
            x[:, r] = acc / a[:, r, r, None]
        return x
    return solve


def christoffel(jet: PointJet, ginv) -> np.ndarray:
    """Levi-Civita Christoffel symbols Gamma^i_{jk} from a jet of g and the
    g^-1 its caller holds (``genmetric.Geometry.ginv`` tests g)."""
    dg = jet.d1  # dg[..., a, i, j] = d_a g_{ij}
    # Gamma^i_{jk} = 1/2 g^{il} (d_j g_{lk} + d_k g_{jl} - d_l g_{jk})
    t = np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) \
        - np.einsum("...ljk->...ljk", dg)
    return 0.5 * np.einsum("...il,...ljk->...ijk", ginv, t)


def riemann(jet: PointJet, ginv) -> np.ndarray:
    """Fully lowered curvature R[i,j,k,l] = g(R(e_i,e_j) e_l, e_k) from an
    order-2 jet of g and the g^-1 its caller holds.

    Antisymmetric in (i,j) and in (k,l), pair symmetric, and positive on
    sphere diagonals: on the unit round 2-sphere R[0,1,0,1] = sin(theta)^2.
    Gamma is assembled here, not by :func:`christoffel`, so the analytic
    curvature shares no code with the commutator oracle built on it.
    """
    gmat, dg, d2g = jet.value, jet.d1, jet.d2
    t = np.einsum("...jlk->...ljk", dg) + np.einsum("...klj->...ljk", dg) \
        - np.einsum("...ljk->...ljk", dg)
    gamma = 0.5 * np.einsum("...il,...ljk->...ijk", ginv, t)
    # d_a Gamma^i_{jk}: differentiate the defining formula by hand.
    dt = np.einsum("...ajlk->...aljk", d2g) \
        + np.einsum("...aklj->...aljk", d2g) - np.einsum("...aljk->...aljk", d2g)
    dginv = -np.einsum("...im,...amn,...nl->...ail", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("...ail,...ljk->...aijk", dginv, t)
                    + np.einsum("...il,...aljk->...aijk", ginv, dt))
    del dt, dginv
    # Operator components: R(e_a, e_b) e_c = Rop[m, c, a, b] e_m.
    rop = (np.einsum("...ambc->...mcab", dgamma)
           - np.einsum("...bmac->...mcab", dgamma)
           + np.einsum("...mal,...lbc->...mcab", gamma, gamma)
           - np.einsum("...mbl,...lac->...mcab", gamma, gamma))
    del dgamma
    # Lower and flip the last operand into the pairing convention.
    return np.einsum("...km,...mlij->...ijkl", gmat, rop)


def frame_contract(arr, *frames) -> np.ndarray:
    """Contract the leading slots of an array into frames, in slot order.

    ``out[a, b, ...] = arr[i, j, ...] f1[a, i] f2[b, j] ...``, one frame
    per leading slot; each frame is an (m, n) array whose rows are the
    frame vectors' components, and entries may be duals.  Staged as one
    :func:`node_einsum` per frame (no BLAS): each contracts the first slot
    with the frame and appends the frame index, so no many-operand product
    is formed.  A leading node axis on ``arr`` or a frame gives one product
    per node; with none (a point, or dual entries) the arrays run as a
    one-node batch.
    """
    out = np.asarray(arr)
    if out.ndim == len(frames) and all(f.ndim == 2 for f in frames):
        return frame_contract(out[None], *frames)[0]
    rest = "jklm"[:len(frames) - 1]
    for frame in frames:
        out = node_einsum(f"i{rest},ai->{rest}a", out, frame)
    return out


def operator_slots(r, f1, f2, f3, f4) -> np.ndarray:
    """A curvature array on frames, in operator slots.

    Entry [mu, nu, rho, sigma] pairs the curvature operator on
    (E_mu, E_nu) applied to E_rho against E_sigma, with E taken from the
    rows of f1..f4.  For an array ``r`` in the :func:`riemann` component
    convention this is :func:`frame_contract` with its last two slots
    swapped; the reduction modules return curvatures in this convention.
    """
    return swap_operator_slots(frame_contract(r, f1, f2, f3, f4))


def node_einsum(spec: str, *ops) -> np.ndarray:
    """``np.einsum(spec, *ops)`` on node stacks, the one product there (no
    BLAS): operands carry a leading node axis that ``spec`` does not name
    (an operand without one is shared by every node); so does the result.

    Each node keeps the bits of its one-node run: on C-order operands the
    inner loop sums over the same contiguous axis.  Not on every spec:
    ``i,ij,j->`` does not at n = 2, so a pairing runs as two one-index
    stages; a result of one entry per node with an index of size 1 is read
    from a repeat of size 2 (``tests/test_node_einsum.py`` tries them all).
    """
    subs, out = spec.split("->")
    subs = subs.split(",")
    lead = [o.ndim > len(sub) for o, sub in zip(ops, subs)]
    if not any(lead):   # the result would have no node axis
        raise ValueError(f"node_einsum {spec!r}: no operand has a node axis")
    ops = [np.ascontiguousarray(o) for o in ops]
    size = {i: n for o, sub in zip(ops, subs)
            for i, n in zip(sub[::-1], o.shape[::-1])}
    pad = 1 in size.values() and all(size[i] == 1 for i in out)
    if pad:     # a repeated output index of the first operand
        ops[0], subs[0] = np.repeat(ops[0][..., None], 2, -1), subs[0] + "Z"
        out += "Z"
    spec = ",".join("..." * node + sub for sub, node in zip(subs, lead))
    res = np.einsum(f"{spec}->...{out}", *ops)
    return res[..., 0] if pad else res


def swap_operator_slots(arr) -> np.ndarray:
    """The swap of slots 2 and 3 between raw component slots and operator
    slots; it is its own inverse, so it also takes an operator-slot array
    back to raw slots.  Leading node axes are kept."""
    return np.swapaxes(arr, -2, -1)


def exterior_derivative(jet: PointJet, degree: int) -> np.ndarray:
    """(d omega) components from a first-order jet of a k-form.

    The alternating sum over j of ``d1`` with its derivative axis moved to
    slot j, so term j reads ``d_{ij} omega_{i0..^ij..ik}``.
    """
    out = jet.d1
    for j in range(1, degree + 1):
        term = np.moveaxis(jet.d1, -degree - 1, j - degree - 1)
        out = out + term if j % 2 == 0 else out - term
    return out


def wedge(omega: np.ndarray, eta: np.ndarray, p: int, q: int) -> np.ndarray:
    """Wedge product of fully antisymmetric component arrays.

    A signed sum over the (p, q) shuffles of transposes of the one outer
    product ``omega_{a..} eta_{b..}``.
    """
    n = omega.shape[0] if p else eta.shape[0]
    if p + q > n:
        raise DegreeError(f"wedge degree {p}+{q} exceeds dimension {n}")
    if p == 0:
        return omega * eta
    if q == 0:
        return eta * omega
    outer = np.multiply.outer(omega, eta)
    out = 0.0
    for sel in itertools.combinations(range(p + q), p):
        perm = sel + tuple(i for i in range(p + q) if i not in sel)
        out = out + _perm_sign(perm) * np.transpose(outer, np.argsort(perm))
    return dual.tighten(out)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def interior(vector, omega: np.ndarray, degree: int) -> np.ndarray:
    """Contraction of a k-form with a vector in the first slot, one per node
    of the leading node axis that either carries (:func:`node_einsum`)."""
    if degree < 1:
        raise DegreeError("interior product needs a form of degree >= 1")
    idx = "abcdefgh"[:degree - 1]
    return node_einsum(f"m{idx},m->{idx}", np.asarray(omega),
                       np.asarray(vector))


def lie_bracket(jx: PointJet, jy: PointJet) -> np.ndarray:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i from order-1 jets of X and Y at
    one point (or batch point)."""
    return (np.einsum("...j,...ji->...i", jx.value, jy.d1)
            - np.einsum("...j,...ji->...i", jy.value, jx.d1))


def lie_derivative(jv: PointJet, jt: PointJet) -> np.ndarray:
    """(L_V T)_{i..} = V^m d_m T_{i..} + sum_s T_{..m..} d_{i_s} V^m.

    The coordinate formula for a covariant tensor field T of any rank, with
    m in slot s of the s-th term; built from order-1 jets of V and T at one
    point.  A batch point gives a leading node axis, each node with the
    bits of its point (:func:`node_einsum`).
    """
    idx = "abcdefgh"[:jt.value.ndim - jv.value.ndim + 1]
    out = node_einsum(f"m,m{idx}->{idx}", jv.value, jt.d1)
    for slot, i in enumerate(idx):
        out = out + node_einsum(f"{idx[:slot]}m{idx[slot + 1:]},{i}m->{idx}",
                                jt.value, jv.d1)
    return out


def max_abs(residuals) -> float:
    """The largest |entry| over samples, each an array or a number.

    The one reduction from per-sample residuals to a check's residual: no
    samples (or an empty array) give 0.0, and a NaN anywhere gives NaN, so
    a tolerance test ``residual <= tol`` fails on it.
    """
    return float(np.max([np.max(np.abs(r), initial=0.0) for r in residuals],
                        initial=0.0))


def antisymmetry_residual(field: ChartField, points) -> float:
    """Worst violation of slot antisymmetry for a form-valued field."""
    if not field.valence.form or field.valence.cov < 2:
        return 0.0
    arrs = (dual.tighten(np.asarray(field(p), dtype=object)) for p in points)
    return max_abs(arr + np.swapaxes(arr, a, a + 1) for arr in arrs
                   for a in range(field.valence.cov - 1))


def orthonormal_frame(vectors, gmat, rank: int, what: str) -> np.ndarray:
    """Modified Gram-Schmidt w.r.t. the metric, rows in fixed input order.

    A vector whose remainder has g-norm at most 1e-10 of the metric scale
    is dropped, and a NaN one with it; RankError unless ``rank`` rows are
    left.  ``vectors`` are (k, n), shared, or (nodes, k, n).  The metric
    carries a leading node axis, and so does the frame, (nodes, rank, n),
    each node with the bits of its own frame.

    A dropped vector leaves a zero row at its node, which later steps
    subtract exactly; each node's kept rows are gathered at the end.
    """
    g = np.ascontiguousarray(gmat, dtype=float)
    size, n = g.shape[0], g.shape[-1]
    vecs = np.asarray(vectors, dtype=float)

    def pair(u, w):     # g(u, w) per node, on C-order (nodes, n) rows
        return np.einsum("kj,kj->k", np.einsum("ki,kij->kj", u, g), w)

    scale = np.sqrt(np.abs(np.trace(g, axis1=1, axis2=2)) / n)
    basis, kept = [], []
    for i in range(vecs.shape[-2]):
        w = np.ascontiguousarray(np.broadcast_to(vecs[..., i, :], (size, n)))
        for b in basis:
            w = w - pair(b, w)[:, None] * b
        nrm = np.sqrt(np.maximum(pair(w, w), 0.0))     # < 0: dropped
        keep = nrm > 1e-10 * scale
        basis.append(np.divide(w, nrm[:, None], out=np.zeros_like(w),
                               where=keep[:, None]))
        kept.append(keep)
    count = np.sum(kept, axis=0)
    if (count != rank).any():
        k = int(np.argmax(count != rank))
        raise RankError(f"{what} has rank {count[k]} at node {k}, "
                        f"expected {rank}")
    rows = np.argsort(~np.stack(kept, 1), axis=1, kind="stable")[:, :rank]
    return np.take_along_axis(np.stack(basis, 1), rows[..., None], axis=1)
