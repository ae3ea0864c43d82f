"""Exterior calculus as array identities, and the one Lie derivative.

``exterior_derivative`` and ``wedge`` are checked against test-local copies
of the per-index loops they replaced, which perform the same float
operations in the same order, so the results must be equal entry for entry.
``lie_derivative`` (the coordinate formula) is checked against test-local
copies of the einsum metric formula and of Cartan's formula
L_V omega = i_V d omega + d i_V omega; those route the arithmetic
differently, so they agree to a few ulps of the operands' scale.
"""

import itertools

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.dual import Dual

ULP = np.finfo(float).eps


def lie(v, t, p):
    """``lie_derivative`` of two fields at p, from their order-1 jets: node
    0 of its one-node result (a point is a one-node batch)."""
    return ch.lie_derivative(ch.differentiate(v, p),
                             ch.differentiate(t, p))[0]


def jet0(f, point):
    """The order-1 jet of ``f`` at a point, node 0 of each array."""
    jet = ch.differentiate(f, point)
    return ch.PointJet(jet.point, jet.value[0], jet.d1[0])


# -- test-local copies of the replaced routines ----------------------------

def loop_exterior_derivative(jet, degree):
    n = len(jet.point)
    if degree == 0:
        return jet.d1
    dtype = object if jet.d1.dtype == object else float
    out = np.zeros((n,) * (degree + 1), dtype=dtype)
    for idx in itertools.product(range(n), repeat=degree + 1):
        acc = 0.0
        for j in range(degree + 1):
            term = jet.d1[(idx[j],) + idx[:j] + idx[j + 1:]]
            acc = acc + term if j % 2 == 0 else acc - term
        out[idx] = acc
    return out


def loop_wedge(omega, eta, p, q):
    if p == 0:
        return omega * eta
    if q == 0:
        return eta * omega
    n = omega.shape[0]
    out = np.zeros((n,) * (p + q), dtype=object)
    shuffles = [(sel, tuple(i for i in range(p + q) if i not in sel))
                for sel in itertools.combinations(range(p + q), p)]
    for idx in itertools.product(range(n), repeat=p + q):
        acc = 0.0
        for sel, rest in shuffles:
            sign = ch._perm_sign(sel + rest)
            acc = acc + sign * omega[tuple(idx[i] for i in sel)] \
                * eta[tuple(idx[i] for i in rest)]
        out[idx] = acc
    return dual.tighten(out)


def einsum_lie_metric(v, g, point):
    jv, jg = jet0(v, point), jet0(g, point)
    return (np.einsum("k,kij->ij", jv.value, jg.d1)
            + np.einsum("kj,ik->ij", jg.value, jv.d1)
            + np.einsum("ik,jk->ij", jg.value, jv.d1))


def cartan_lie_form(v, omega, point):
    k = omega.valence.cov
    vval = jet0(v, point).value
    dom = loop_exterior_derivative(jet0(omega.fn, point), k)
    term1 = np.tensordot(vval, dom, axes=(0, 0))

    def iv_omega(c):
        return np.tensordot(np.asarray(v.fn(c), dtype=object),
                            np.asarray(omega.fn(c), dtype=object), axes=(0, 0))
    return term1 + loop_exterior_derivative(jet0(iv_omega, point), k - 1)


# -- helpers ---------------------------------------------------------------

def same_entries(a, b):
    """Equal shapes and equal entries; dual trees compared leaf by leaf."""
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        return False
    return all(same_tree(x, y) for x, y in zip(a.ravel().tolist(),
                                               b.ravel().tolist()))


def same_tree(x, y):
    if isinstance(x, Dual) or isinstance(y, Dual):
        return isinstance(x, Dual) and isinstance(y, Dual) \
            and x.level == y.level and same_tree(x.val, y.val) \
            and same_tree(x.eps, y.eps)
    return x == y


def dual_array(rng, shape):
    """An object array of order-1 duals of one level with random parts."""
    lvl = dual.fresh_level()
    vals, eps = rng.normal(size=shape), rng.normal(size=shape)
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape):
        out[idx] = Dual(float(vals[idx]), float(eps[idx]), lvl)
    return out


def lie_scale(v, t, point):
    """The coordinate formula evaluated on absolute values."""
    jv, jt = jet0(v.fn, point), jet0(t.fn, point)
    out = np.tensordot(np.abs(jv.value), np.abs(jt.d1), axes=(0, 0))
    for slot in range(jt.value.ndim):
        out = out + np.moveaxis(np.tensordot(np.abs(jt.value),
                                             np.abs(jv.d1), axes=(slot, 1)),
                                -1, slot)
    return float(np.max(out))


# -- exterior derivative ---------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_exterior_derivative_equals_loop_on_float_jets(n, degree):
    rng = np.random.default_rng(10 * n + degree)
    d1 = rng.normal(size=(n,) * (degree + 1))
    jet = ch.PointJet((0.0,) * n, rng.normal(size=(n,) * degree), d1)
    got = ch.exterior_derivative(jet, degree)
    want = loop_exterior_derivative(jet, degree)
    assert got.dtype == want.dtype == float
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_exterior_derivative_equals_loop_on_dual_jets(n, degree):
    rng = np.random.default_rng(100 + 10 * n + degree)
    d1 = dual_array(rng, (n,) * (degree + 1))
    jet = ch.PointJet((0.0,) * n, None, d1)
    got = ch.exterior_derivative(jet, degree)
    assert got.dtype == object
    assert same_entries(got, loop_exterior_derivative(jet, degree))


def test_exterior_derivative_equals_loop_at_a_dual_point():
    s = sc.build("hopf_flux", {"flux": 1.4})
    p = list(s.chart.sample(np.random.default_rng(4), 1)[0])
    p[0] = Dual(p[0], 1.0, dual.fresh_level())
    for field, degree in ((s.ea.xi[0], 1), (s.ctx.H, 3)):
        jet = ch.differentiate(field, p, order=1)
        assert jet.d1.dtype == object
        assert same_entries(ch.exterior_derivative(jet, degree),
                            loop_exterior_derivative(jet, degree))


# -- wedge -----------------------------------------------------------------

WEDGE_CASES = [(n, p, q) for n in range(1, 6) for p in range(n + 1)
               for q in range(n + 1 - p) if p + q >= 1]


@pytest.mark.parametrize("n, p, q", WEDGE_CASES)
def test_wedge_equals_shuffle_loop(n, p, q):
    rng = np.random.default_rng(1000 + 100 * n + 10 * p + q)
    omega = rng.normal(size=(n,) * p)
    eta = rng.normal(size=(n,) * q)
    for a, b in ((omega, eta), (omega.astype(object), eta.astype(object))):
        got = ch.wedge(a, b, p, q)
        want = loop_wedge(a, b, p, q)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 1), (0, 2), (2, 0)])
def test_wedge_equals_shuffle_loop_on_duals(p, q):
    rng = np.random.default_rng(7 * p + q)
    omega, eta = dual_array(rng, (3,) * p), dual_array(rng, (3,) * q)
    assert same_entries(ch.wedge(omega, eta, p, q),
                        loop_wedge(omega, eta, p, q))


# -- Lie derivative --------------------------------------------------------

def lie_cases(name):
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    rng = np.random.default_rng(21)
    fields = list(s.ea.V) + [ck.random_vector_field(s.chart, rng)]
    tensors = [(s.ctx.g, einsum_lie_metric), (s.ctx.H, cartan_lie_form)] \
        + [(xi, cartan_lie_form) for xi in s.ea.xi]
    return s, fields, tensors


@pytest.mark.parametrize("name", ["s3xt2", "product_qg"])
def test_lie_derivative_matches_metric_and_cartan_routes(name):
    s, fields, tensors = lie_cases(name)
    for p in s.chart.sample(np.random.default_rng(22), 3):
        for v in fields:
            for t, old in tensors:
                got, want = lie(v, t, p), old(v, t, p)
                assert got.shape == want.shape == \
                    (s.chart.dim,) * t.valence.cov
                bound = 8 * ULP * lie_scale(v, t, p)
                assert np.max(np.abs(got - want), initial=0.0) \
                    <= bound, (t.name, v.name)


def test_lie_derivative_of_random_polynomial_two_form():
    n = 4
    rng = np.random.default_rng(31)
    c1 = rng.normal(size=(n, n, n)).tolist()
    c2 = rng.normal(size=(n, n, n, n)).tolist()

    def fn(c):
        a = [[sum(c1[i][j][k] * c[k] + sum(c2[i][j][k][m] * c[k] * c[m]
                                           for m in range(n))
                  for k in range(n)) for j in range(n)] for i in range(n)]
        return [[a[i][j] - a[j][i] for j in range(n)] for i in range(n)]

    box = ch.Chart("box4", (-1.0,) * n, (1.0,) * n)
    omega = ch.ChartField(box, ch.form_valence(2), fn, name="poly2")
    v = ck.random_vector_field(box, rng)
    worst = 0.0
    for p in box.sample(rng, 4):
        got, want = lie(v, omega, p), cartan_lie_form(v, omega, p)
        assert got.shape == want.shape
        err = np.max(np.abs(got - want))
        assert err <= 8 * ULP * lie_scale(v, omega, p)
        worst = max(worst, float(np.max(np.abs(got))))
    assert worst > 1.0          # the comparison is not between zeros


def test_lie_derivative_of_flat_metric_along_rotations_is_zero():
    box = ch.Chart("box3", (-2.0,) * 3, (2.0,) * 3)
    flat = ch.ChartField(box, ch.METRIC, lambda c: np.eye(3), name="flat")
    rotations = [lambda c: [-c[1], c[0], 0.0],
                 lambda c: [0.0, -c[2], c[1]],
                 lambda c: [c[2] * 0.5, 0.0, -c[0] * 0.5]]
    for k, fn in enumerate(rotations):
        v = ch.ChartField(box, ch.VECTOR, fn, name=f"rot{k}")
        for p in box.sample(np.random.default_rng(k), 3):
            assert np.array_equal(lie(v, flat, p),
                                  np.zeros((3, 3)))


def test_lie_derivative_of_one_form_by_hand():
    # V = x y d_x + d_y, xi = y dx + x^2 dy:
    # L_V xi = (1 + y^2) dx + (2 x^2 y + x y) dy
    box = ch.Chart("plane", (-4.0, -4.0), (4.0, 4.0))
    v = ch.ChartField(box, ch.VECTOR, lambda c: [c[0] * c[1], 1.0])
    xi = ch.ChartField(box, ch.COVECTOR, lambda c: [c[1], c[0] * c[0]])
    got = lie(v, xi, (0.5, 2.0))
    assert np.array_equal(got, [5.0, 2.0])
    got = lie(v, xi, (-1.5, 0.25))
    assert got.shape == (2,)
    assert np.allclose(got, [1.0625, 0.75], rtol=0, atol=4 * ULP)


def test_lie_derivative_of_a_function_is_its_directional_derivative():
    box = ch.Chart("plane", (-4.0, -4.0), (4.0, 4.0))
    v = ch.ChartField(box, ch.VECTOR, lambda c: [c[1], -2.0])
    f = ch.ChartField(box, ch.SCALAR, lambda c: c[0] * c[0] * c[1])
    # V(f) = y * 2 x y - 2 x^2 at (1.5, 0.5): 0.75 - 4.5
    assert lie(v, f, (1.5, 0.5)) == -3.75


# -- the validator's work --------------------------------------------------

@pytest.mark.parametrize("name", ["product_qg", "s3xt2", "hopf_flux"])
def test_validator_differentiates_each_field_once_per_point(monkeypatch,
                                                            name):
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    p = s.chart.sample(np.random.default_rng(6), 1)
    calls = [0]
    original = dual.partial

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(dual, "partial", counted)
    assert qt.validate_extended_action(s.ea, s.ctx, p).passed
    # one order-1 jet (n passes) each of g, H, every V_a and every xi_a
    assert calls[0] == (2 * s.ea.s + 2) * s.chart.dim
