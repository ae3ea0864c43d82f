"""Point batches: one jet per slab of Euler quadrature nodes.

``dual.Batch`` carries one float per node.  Its arithmetic is numpy's
elementwise IEEE arithmetic, which rounds exactly as float arithmetic does;
``**`` and the math functions call, node by node, the libm routine a float
calls.  numpy's own kernels would not do: its ``x**2`` is ``x*x``, while a
float's ``**2`` calls ``pow`` (they disagree in the last bit on about one
input in a thousand), and its ``exp`` and ``log`` are vectorized kernels that
differ from libm in the last bit.  So a node of a batch must carry exactly
the bits of the scalar path, with no ulp bound to state, and the batched jets
and the float geometry after them are compared with per-node calls under
``np.array_equal``; ``euler_characteristic`` is compared with a test-local
copy of the node-by-node loop it replaced.
"""

import json
import math

import numpy as np
import pytest

from ggred import chart as ch
from ggred import cli
from ggred import dual
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.dual import Batch, Dual
from ggred.errors import DomainError, EvaluationError
from ggred.genmetric import (GeneralizedMetricContext, Geometry,
                             bismut_curvature)
from point_routines import riemann_of

NODES = 64
EPS = np.finfo(float).eps


def count_partials(monkeypatch):
    calls = [0]
    original = dual.partial

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(dual, "partial", counted)
    return calls


# -- test-local copies of the replaced routines ----------------------------

def node_loop_euler(ctx, domain, order, use_flux=True):
    """The quadrature as it was: one node at a time, terms summed in C order.

    Also returns the sum of |terms|, the scale of a rounding bound.
    """
    lo, hi = (np.asarray(domain[0], dtype=float),
              np.asarray(domain[1], dtype=float))
    n = lo.size
    wide = ch.Chart("euler-cover", tuple(lo - 1e-9), tuple(hi + 1e-9))
    ctx = GeneralizedMetricContext(
        ch.ChartField(wide, ctx.g.valence, ctx.g.fn, name=ctx.g.name),
        ch.ChartField(wide, ctx.H.valence, ctx.H.fn, name=ctx.H.name))
    x1, w1 = np.polynomial.legendre.leggauss(order)
    nodes = [0.5 * (hi[a] + lo[a]) + 0.5 * (hi[a] - lo[a]) * x1
             for a in range(n)]
    weights = [0.5 * (hi[a] - lo[a]) * w1 for a in range(n)]
    total, scale = 0.0, 0.0
    for idx in np.ndindex(*([order] * n)):
        p = [nodes[a][idx[a]] for a in range(n)]
        w = 1.0
        for a in range(n):
            w *= weights[a][idx[a]]
        # a point is a one-node batch: its arrays carry a node axis of 1
        gmat = ctx.metric_at(p)
        rarr = (bismut_curvature(-1, Geometry(ctx, p))
                if use_flux and ctx.has_flux
                else riemann_of(ch.differentiate(ctx.g, p, order=2)))
        term = w * lz.euler_density(rarr, gmat)[0] * \
            np.sqrt(ch.gauss_jordan(gmat[0])[1])
        total += term
        scale += abs(term)
    norm = (2.0 * np.pi) ** (n // 2)
    return total / norm, scale / norm


def old_metric_inverse(g):
    """Gauss-Jordan with partial pivoting, one float at a time."""
    n = len(g)
    a = [list(map(float, row)) + [float(i == j) for j in range(n)]
         for i, row in enumerate(g)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: (abs(a[r][col]), -r))
        a[col], a[piv] = a[piv], a[col]
        top = [v / a[col][col] for v in a[col]]
        for r in range(n):
            a[r] = top if r == col else \
                [v - a[r][col] * t for v, t in zip(a[r], top)]
    return np.array([row[n:] for row in a])


def loop_frame_contract(arr, *frames):
    """The staged frame contraction as plain Python sums in index order."""
    out = np.asarray(arr, dtype=object)
    for frame in frames:
        new = np.empty(out.shape[1:] + frame.shape[:1], dtype=object)
        for *rest, a in np.ndindex(*new.shape):
            new[(*rest, a)] = sum(out[(i, *rest)] * frame[a, i]
                                  for i in range(frame.shape[1]))
        out = new
    return out.astype(float)


def old_euler_density(rarr, gmat):
    n = gmat.shape[0]
    frame = ch.orthonormal_frame(np.eye(n), gmat[None], n, "frame")[0]
    rfr = ch.frame_contract(rarr, frame, frame, frame, frame)
    quart = lz.curvature_quartic(rfr[None], n)     # one node
    body = lz.berezin_integral((0.5 * quart).exp(), lz.euler_measure(n)).body
    return body.v[0] if isinstance(body, Batch) else body


# -- the batch scalar ------------------------------------------------------

RNG = np.random.default_rng(20261018)
X = RNG.uniform(-3.0, 3.0, 2000)
Y = RNG.uniform(0.1, 4.0, 2000)


def nodewise(fn, *cols):
    return np.array([fn(*args) for args in zip(*(c.tolist() for c in cols))])


@pytest.mark.parametrize("op", [
    lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b - a,
    lambda a, b: a * b, lambda a, b: a / b, lambda a, b: b / a,
    lambda a, b: -a + 2.5 * b - 1.25, lambda a, b: 3.0 / b - a / 7.0])
def test_batch_arithmetic_equals_float_arithmetic(op):
    out = op(Batch(X), Batch(Y))
    assert isinstance(out, Batch)
    assert np.array_equal(out.v, nodewise(op, X, Y))


@pytest.mark.parametrize("p", [2, 3, 0.5, -1.5, 2.0])
def test_batch_power_calls_pow_per_node(p):
    assert np.array_equal((Batch(Y) ** p).v, nodewise(lambda y: y ** p, Y))
    # the quadrature's nodes are numpy scalars, whose ** also calls pow
    assert np.array_equal((Batch(Y) ** p).v,
                          np.array([np.float64(y) ** p for y in Y.tolist()]))
    assert np.array_equal((1.7 ** Batch(X)).v, nodewise(lambda x: 1.7 ** x, X))


@pytest.mark.parametrize("name,cols", [
    ("sin", (X,)), ("cos", (X,)), ("tan", (X,)), ("exp", (X,)),
    ("log", (Y,)), ("sqrt", (Y,)), ("asin", (X / 3.1,)),
    ("acos", (X / 3.1,)), ("atan", (X,)), ("atan2", (X, Y)),
    ("atan2", (Y, X)), ("hypot", (X, Y))])
def test_math_functions_equal_the_scalar_path(name, cols):
    fn = getattr(dual, name)
    out = fn(*(Batch(c) for c in cols))
    assert np.array_equal(out.v, nodewise(fn, *cols))


def test_batch_inside_duals_equals_per_node_duals():
    def f(c):
        return dual.sin(c[0]) ** 2 * dual.exp(c[1]) / (1.0 + c[0] * c[1])

    lvl = dual.fresh_level()
    out = f([Dual(Batch(X), 1.0, lvl), Batch(Y)])
    for k in range(0, X.size, 97):
        ref = f([Dual(float(X[k]), 1.0, lvl), float(Y[k])])
        assert out.val.v[k] == ref.val and out.eps.v[k] == ref.eps


@pytest.mark.parametrize("expr", [
    lambda b: b > 1.0, lambda b: 1.0 < b, lambda b: b == 0.0,
    lambda b: bool(b), lambda b: math.sin(b), lambda b: np.sin(b),
    lambda b: abs(Dual(b, 1.0, dual.fresh_level())),
    lambda b: Dual(b, 1.0, dual.fresh_level()) <= 0.0])
def test_batch_refuses_branching_and_foreign_math(expr):
    with pytest.raises(TypeError):
        expr(Batch(X))


# -- batched jets and geometry on every built-in with an Euler domain ------

EULER_BUILTINS = [("flat_torus", {}), ("flat_torus", {"dim": 4}),
                  ("round_sphere", {}), ("round_sphere", {"factors": 2}),
                  ("round_sphere", {"radius": 2.5}), ("s3xs1_gk", {})]
FIELDS = [(name, params, "g") for name, params in EULER_BUILTINS] + \
    [("s3xs1_gk", {}, "H")]


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes).T]


@pytest.mark.parametrize("name,params,attr", FIELDS)
def test_batched_jet_equals_per_node_jets(name, params, attr):
    s = sc.build(name, params)
    field = getattr(s.ctx, attr)
    nodes = s.chart.sample(np.random.default_rng(5), NODES)
    jet = ch.differentiate(field, batch_of(nodes), order=2)
    n = s.chart.dim
    assert jet.value.shape[0] == NODES and jet.d1.shape[:2] == (NODES, n) \
        and jet.d2.shape[:3] == (NODES, n, n)
    for k, node in enumerate(nodes):
        ref = ch.differentiate(field, list(node), order=2)
        for got, want in ((jet.value, ref.value), (jet.d1, ref.d1),
                          (jet.d2, ref.d2)):
            assert np.array_equal(got[k], want[0])


@pytest.mark.parametrize("name,params", EULER_BUILTINS)
def test_batched_geometry_equals_per_node_geometry(name, params):
    s = sc.build(name, params)
    nodes = s.chart.sample(np.random.default_rng(8), NODES)
    p = batch_of(nodes)
    gmat = s.ctx.metric_at(p)
    riem = riemann_of(ch.differentiate(s.ctx.g, p, order=2))
    rmin = bismut_curvature(-1, Geometry(s.ctx, p))
    dens = lz.euler_density(rmin, gmat)
    assert dens.shape == (NODES,)
    for k, node in enumerate(nodes):
        node = list(node)
        g_k = s.ctx.metric_at(node)[0]
        assert np.array_equal(gmat[k], g_k)
        assert np.array_equal(riem[k], riemann_of(
            ch.differentiate(s.ctx.g, node, order=2))[0])
        r_k = bismut_curvature(-1, Geometry(s.ctx, node))[0]
        assert np.array_equal(rmin[k], r_k)
        assert dens[k] == lz.euler_density(r_k[None],
                                           g_k[None])[0]


def test_single_point_routines_keep_their_bits():
    rng = np.random.default_rng(2)
    draws = []
    for _ in range(20):
        a = rng.normal(size=(4, 4))
        g = a @ a.T + 0.5 * np.eye(4)
        r = rng.normal(size=(4, 4, 4, 4))
        frames = [rng.normal(size=(m, 4)) for m in (4, 3, 2, 4)]
        assert np.array_equal(ch.inverse(g, definite=True),
                              old_metric_inverse(g))
        assert lz.euler_density(r[None], g[None])[0] == \
            old_euler_density(r, g)
        draws.append((r, frames))
    # the frame contraction has no BLAS reference: node k of the stacked
    # draws keeps the bits of draw k alone, within 4 stages of 4-term sums
    # of the plain loop
    stacked = ch.frame_contract(np.array([r for r, _ in draws]), *(
        np.array(f) for f in zip(*(frames for _, frames in draws))))
    for k, (r, frames) in enumerate(draws):
        got = ch.frame_contract(r, *frames)
        assert np.array_equal(stacked[k], got)
        bound = 16 * EPS * loop_frame_contract(np.abs(r),
                                               *map(np.abs, frames))
        assert np.all(np.abs(got - loop_frame_contract(r, *frames)) <= bound)


# -- the slab quadrature ---------------------------------------------------

@pytest.mark.parametrize("name,params,order", [
    ("flat_torus", {}, 16), ("flat_torus", {"dim": 4}, 4),
    ("round_sphere", {}, 16), ("round_sphere", {}, 7),
    ("round_sphere", {"factors": 2}, 5),
    ("round_sphere", {"radius": 2.5}, 16)])
def test_slab_quadrature_equals_the_node_loop(name, params, order):
    s = sc.build(name, params)
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order)
    assert chi == node_loop_euler(s.ctx, s.euler_domain, order)[0]


def warped_metric(c):
    """A dense, non-product metric on the 4-box: every term of R is generic."""
    f = 1.0 + 0.3 * dual.sin(c[0]) * dual.cos(c[1] + 0.5 * c[3])
    b = 0.2 * dual.sin(c[2] - c[0])
    return [[f, b, 0.1, 0.0],
            [b, f * (2.0 + dual.cos(c[2])), 0.0, 0.1 * dual.sin(c[3])],
            [0.1, 0.0, 1.5, b * b],
            [0.0, 0.1 * dual.sin(c[3]), b * b, 1.0 + 0.25 * f]]


WARPED = ch.ChartField(ch.Chart("t4", (0.0,) * 4, (2 * np.pi,) * 4),
                       ch.METRIC, warped_metric)


def test_dense_metric_geometry_and_quadrature_equal_the_node_loop():
    ctx = GeneralizedMetricContext.create(WARPED)
    nodes = WARPED.chart.sample(np.random.default_rng(9), NODES)
    p = batch_of(nodes)
    riem = riemann_of(ch.differentiate(WARPED, p, order=2))
    gmat = ctx.metric_at(p)
    dens = lz.euler_density(riem, gmat)
    for k, node in enumerate(nodes):
        r_k = riemann_of(ch.differentiate(WARPED, list(node), order=2))[0]
        assert np.array_equal(riem[k], r_k)
        g_k = ctx.metric_at(list(node))[0]
        assert dens[k] == lz.euler_density(r_k[None],
                                           g_k[None])[0]
    domain = (WARPED.chart.lower, WARPED.chart.upper)
    chi = lz.euler_characteristic(ctx, domain, 4)
    assert chi == node_loop_euler(ctx, domain, 4)[0]


def test_flux_quadrature_matches_the_node_loop():
    # The H.H and nabla-H contractions sum several nonzero products per
    # entry; a numpy build whose batched and per-node kernels group those
    # sums differently may move last bits, so the bound is 8 ulps of the
    # sum of |node terms|.  On the reference machine they agree exactly.
    s = sc.build("s3xs1_gk", {})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, 3)
    ref, scale = node_loop_euler(s.ctx, s.euler_domain, 3)
    assert abs(chi - ref) <= 8 * np.finfo(float).eps * scale
    assert scale > 0.0


def test_batched_order2_jet_makes_n_plus_n_squared_passes(monkeypatch):
    s = sc.build("round_sphere", {"factors": 2})
    p = batch_of(s.chart.sample(np.random.default_rng(3), NODES))
    calls = count_partials(monkeypatch)
    ch.differentiate(s.ctx.g, p, order=2)
    assert calls[0] == 4 + 4 * 4
    # and the quadrature takes one such jet per slab of order^2 nodes
    calls[0] = 0
    lz.euler_characteristic(s.ctx, s.euler_domain, 3)
    assert calls[0] == 3 * 3 * (4 + 4 * 4)


def test_batch_node_outside_the_chart_raises_domain_error():
    s = sc.build("round_sphere", {})
    nodes = s.chart.sample(np.random.default_rng(4), 8)
    nodes[5, 0] = 3.2          # theta beyond pi - 0.05
    with pytest.raises(DomainError):
        ch.differentiate(s.ctx.g, batch_of(nodes), order=2)


def test_batch_non_finite_node_raises_evaluation_error():
    box = ch.Chart("box", (0.0, 0.0), (1e6, 1.0))
    g = ch.ChartField(box, ch.METRIC,
                      lambda c: [[1.0 + c[0] * c[0] * 1e300, 0.0], [0.0, 1.0]])
    nodes = np.array([[0.5, 0.5]] * 7 + [[1e5, 0.5]])
    with np.errstate(over="ignore"):
        with pytest.raises(EvaluationError):
            ch.differentiate(g, batch_of(nodes), order=1)
        with pytest.raises(EvaluationError):
            ch.differentiate(g, list(nodes[-1]), order=1)


# -- fields with no batch form ---------------------------------------------

def branching_metric(c):
    s2 = dual.sin(c[0]) ** 2
    return [[1.0, 0.0], [0.0, s2 if c[0] > 1.0 else s2 * 1.0]]


def libm_metric(c):
    return [[1.0, 0.0], [0.0, math.sin(dual.body(c[0])) ** 2 + 0.5]]


@pytest.mark.parametrize("fn", [branching_metric, libm_metric])
def test_field_with_no_batch_form_runs_node_by_node(monkeypatch, fn):
    box = ch.Chart("s2", (0.05, 0.0), (np.pi - 0.05, 2 * np.pi))
    ctx = GeneralizedMetricContext.create(ch.ChartField(box, ch.METRIC, fn))
    domain = ((0.0, 0.0), (np.pi, 2 * np.pi))
    calls = count_partials(monkeypatch)
    chi = lz.euler_characteristic(ctx, domain, 8)
    # the one slab of 8 x 8 nodes took one order-2 jet, n + n^2 passes,
    # and the field ran node by node inside each pass
    assert calls[0] == 2 + 2 * 2
    assert chi == node_loop_euler(ctx, domain, 8)[0]
    if fn is branching_metric:
        assert abs(chi - 2.0) < 0.05


def test_type_error_after_the_first_slab_runs_that_slab_node_by_node():
    def late_failure(c):
        if isinstance(c[0], Batch) and c[0].v[0] > 2.0:
            raise TypeError("fails on a later slab")
        return np.eye(4)

    box = ch.Chart("t4", (0.0,) * 4, (2 * np.pi,) * 4)
    ctx = GeneralizedMetricContext.create(
        ch.ChartField(box, ch.METRIC, late_failure))
    domain = (box.lower, box.upper)
    assert lz.euler_characteristic(ctx, domain, 4) == \
        node_loop_euler(ctx, domain, 4)[0]


# -- the flat 4-torus from the CLI, and the validator's evaluations -------

def test_flat_four_torus_runs_its_default_checks(tmp_path):
    out = tmp_path / "t4.json"
    rc = cli.main(["run", "--scenario", "flat_torus", "--set", "dim=4",
                   "--report", str(out)])
    assert rc == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    euler = [c for c in report["checks"] if c["id"] == "euler"]
    assert euler and euler[0]["status"] == "pass"
    assert euler[0]["max_residual"] == 0.0


def counting(field, counts):
    def fn(c):
        if not any(isinstance(x, Dual) for x in c):
            counts[field.name] = counts.get(field.name, 0) + 1
        return field.fn(c)
    return ch.ChartField(field.chart, field.valence, fn, name=field.name)


@pytest.mark.parametrize("name", ["product_qg", "s3xt2"])
def test_validator_evaluates_each_field_once_at_a_float_point(name):
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    counts = {}
    fields = {f"V{a}": f for a, f in enumerate(s.ea.V)}
    fields.update({f"xi{a}": f for a, f in enumerate(s.ea.xi)})
    fields.update(g=s.ctx.g, H=s.ctx.H)
    wrapped = {k: counting(ch.ChartField(f.chart, f.valence, f.fn, name=k),
                           counts) for k, f in fields.items()}
    ea = qt.ExtendedAction(tuple(wrapped[f"V{a}"] for a in range(s.ea.s)),
                           tuple(wrapped[f"xi{a}"] for a in range(s.ea.s)))
    ctx = GeneralizedMetricContext(wrapped["g"], wrapped["H"])
    p = s.chart.sample(np.random.default_rng(6), 1)
    assert qt.validate_extended_action(ea, ctx, p).passed
    assert counts == {k: 1 for k in fields}
