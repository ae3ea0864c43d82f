"""Generalized tangent bundle: pairing, bracket, torsion connections."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred.chart import Chart, ChartField, METRIC, VECTOR, form_valence
from ggred.dual import cos, sin
from ggred.errors import SingularMetricError
from ggred.genmetric import (GeneralizedMetricContext, GeneralizedVector,
                             Geometry, bismut_curvature,
                             bismut_curvature_commutator,
                             bismut_derivative, bismut_via_courant,
                             courant_bracket, split_pm)
from ggred.scenarios import antisym3
from point_routines import bracket_at, christoffel_of, riemann_of

RNG = np.random.default_rng(42)


def node0(*arrays):
    """Node 0 of each array: a point is a one-node batch."""
    return tuple(a[0] for a in arrays)

BOX3 = Chart("r3", (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
FLAT3 = ChartField(BOX3, METRIC, lambda c: np.eye(3))
CONST_FLUX = ChartField(BOX3, form_valence(3),
                        lambda c: antisym3(3, (0, 1, 2), 1.3))
CTX_FLAT = GeneralizedMetricContext.create(FLAT3)
CTX_FLUX = GeneralizedMetricContext(FLAT3, CONST_FLUX)

S3 = Chart("s3", (0.15, -3.0, 0.05), (np.pi - 0.15, 3.0, 4 * np.pi - 0.05))
GS3 = ChartField(S3, METRIC,
                 lambda c: [[0.25, 0.0, 0.0],
                            [0.0, 0.25, 0.25 * cos(c[0])],
                            [0.0, 0.25 * cos(c[0]), 0.25]])


def s3_ctx(lam):
    h = ChartField(S3, form_valence(3),
                   lambda c: antisym3(3, (0, 1, 2), lam * sin(c[0]) / 8.0))
    return GeneralizedMetricContext(GS3, h)


def const_vec(chart, v):
    arr = np.asarray(v, dtype=float)
    return ChartField(chart, VECTOR, lambda c: arr.copy())


def zero_cov(chart):
    return ChartField(chart, ch.COVECTOR, lambda c: np.zeros(chart.dim))


def rand_vec(chart, rng):
    n = chart.dim
    c0 = rng.normal(size=n) * 0.5
    c1 = rng.normal(size=(n, n)) * 0.3

    def fn(c):
        return [c0[i] + sum(c1[i, j] * sin(c[j]) for j in range(n))
                for i in range(n)]
    return ChartField(chart, VECTOR, fn)


# -- pairing and splitting -------------------------------------------------

def test_pairing_symmetric_bilinear():
    rng = np.random.default_rng(0)
    p = (0.0, 0.0, 0.0)
    for _ in range(5):
        a = GeneralizedVector(rng.normal(size=3), rng.normal(size=3), p)
        b = GeneralizedVector(rng.normal(size=3), rng.normal(size=3), p)
        c = GeneralizedVector(rng.normal(size=3), rng.normal(size=3), p)
        assert np.isclose(a.pairing(b), b.pairing(a))
        ab = GeneralizedVector(a.X + 2.0 * b.X, a.xi + 2.0 * b.xi, p)
        assert np.isclose(ab.pairing(c), a.pairing(c) + 2.0 * b.pairing(c))


def test_split_pm_eigenvectors():
    p = (0.1, 0.2, 0.3)
    (gmat,) = node0(CTX_FLAT.metric_at(p))
    x = np.array([1.0, -2.0, 0.5])
    # the vector parts at a point carry a node axis of 1
    plus = GeneralizedVector(x[None], (gmat @ x)[None], p)
    xp, xm = node0(*split_pm(plus, CTX_FLAT))
    assert xp.shape == xm.shape == x.shape
    assert np.allclose(xp, x) and np.allclose(xm, 0.0)
    minus = GeneralizedVector(x[None], (-gmat @ x)[None], p)
    xp, xm = node0(*split_pm(minus, CTX_FLAT))
    assert xp.shape == xm.shape == x.shape
    assert np.allclose(xm, x) and np.allclose(xp, 0.0)


def test_split_pm_reconstruction_and_pairing():
    # oracle: <A, A> = 2 xi(X) expands algebraically to
    # 2 g(X+, X+) - 2 g(X-, X-); confirmed numerically on random A
    rng = np.random.default_rng(1)
    ctx = s3_ctx(0.7)
    for p in S3.sample(rng, 4):
        (gmat,) = node0(ctx.metric_at(p))
        a = GeneralizedVector(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)),
                              tuple(p))
        xp, xm = node0(*split_pm(a, ctx))
        recon_x = xp + xm
        recon_xi = gmat @ xp - gmat @ xm
        assert recon_x.shape == recon_xi.shape == a.X[0].shape
        assert np.allclose(recon_x, a.X[0], atol=1e-12)
        assert np.allclose(recon_xi, a.xi[0], atol=1e-12)
        (lhs,) = a.pairing(a)
        rhs = 2.0 * xp @ gmat @ xp - 2.0 * xm @ gmat @ xm
        assert abs(lhs - rhs) < 1e-10


def test_split_singular_metric():
    gbad = ChartField(BOX3, METRIC, lambda c: np.zeros((3, 3)))
    ctx = GeneralizedMetricContext.create(gbad)
    a = GeneralizedVector(np.ones(3), np.ones(3), (0.0, 0.0, 0.0))
    with pytest.raises(SingularMetricError):
        split_pm(a, ctx)


# -- Courant bracket -------------------------------------------------------

def test_bracket_constant_untwisted_vanishes():
    x = const_vec(BOX3, [1.0, 0.0, 0.0])
    y = const_vec(BOX3, [0.0, 1.0, 0.0])
    br = courant_bracket(x, zero_cov(BOX3), y, zero_cov(BOX3), CTX_FLAT,
                         (0.0, 0.0, 0.0))
    assert np.max(np.abs(br.X)) == 0.0
    assert np.max(np.abs(br.xi)) == 0.0


def test_bracket_closed_one_forms_vanish():
    zero_v = const_vec(BOX3, [0.0, 0.0, 0.0])
    xi = ChartField(BOX3, ch.COVECTOR, lambda c: [1.0, 2.0, -0.5])
    br = courant_bracket(zero_v, xi, zero_v, xi, CTX_FLAT, (0.1, 0.2, 0.3))
    assert np.max(np.abs(br.X)) == 0.0
    assert np.max(np.abs(br.xi)) < ch.EPS_ID


def test_bracket_flux_term():
    # flat chart with unit 3-form: bracket of the first two coordinate
    # fields has covector part along the third coordinate
    h = ChartField(BOX3, form_valence(3), lambda c: antisym3(3, (0, 1, 2),
                                                             1.0))
    ctx = GeneralizedMetricContext(FLAT3, h)
    x = const_vec(BOX3, [1.0, 0.0, 0.0])
    y = const_vec(BOX3, [0.0, 1.0, 0.0])
    br = courant_bracket(x, zero_cov(BOX3), y, zero_cov(BOX3), ctx,
                         (0.0, 0.0, 0.0))
    assert np.max(np.abs(br.X)) == 0.0
    assert br.xi.shape == (1, 3)
    assert np.allclose(br.xi[0], [0.0, 0.0, 1.0])


def test_bracket_reduces_to_lie_bracket():
    rng = np.random.default_rng(2)
    x = rand_vec(BOX3, rng)
    y = rand_vec(BOX3, rng)
    p = BOX3.sample(rng, 1)[0]
    br = courant_bracket(x, zero_cov(BOX3), y, zero_cov(BOX3), CTX_FLAT, p)
    assert np.allclose(br.X, bracket_at(x, y, p))
    assert np.max(np.abs(br.xi)) < 1e-14


# -- torsion connections ---------------------------------------------------

def test_bismut_reduces_to_levi_civita():
    rng = np.random.default_rng(3)
    x, y = rand_vec(S3, rng), rand_vec(S3, rng)
    ctx0 = GeneralizedMetricContext.create(GS3)
    p = S3.sample(rng, 1)[0]
    jy = ch.differentiate(y, p, order=1)
    dy, yv, gam = node0(jy.d1, jy.value,
                        christoffel_of(ch.differentiate(GS3, p)))
    lc = (np.einsum("j,ji->i", np.asarray(x(p), float), dy)
          + np.einsum("ijk,j,k->i", gam, np.asarray(x(p), float), yv))
    for sign in (+1, -1):
        (got,) = node0(bismut_derivative(x, y, sign, ctx0, p))
        assert got.shape == lc.shape
        assert np.allclose(got, lc)


def test_torsion_is_flux():
    rng = np.random.default_rng(4)
    ctx = s3_ctx(1.1)
    for _ in range(3):
        x, y = rand_vec(S3, rng), rand_vec(S3, rng)
        p = S3.sample(rng, 1)[0]
        ginv, h = node0(ch.inverse(ctx.metric_at(p), definite=True), ctx.flux_at(p))
        xv = np.asarray(x(p), float)
        yv = np.asarray(y(p), float)
        expect = np.einsum("il,ljk,j,k->i", ginv, h, xv, yv)
        for sign in (+1, -1):
            (tor,) = node0(bismut_derivative(x, y, sign, ctx, p)
                           - bismut_derivative(y, x, sign, ctx, p)
                           - bracket_at(x, y, p))
            assert tor.shape == expect.shape
            assert np.max(np.abs(tor - sign * expect)) < ch.EPS_ID


def test_metric_compatibility():
    # oracle: compatibility of the Levi-Civita derivative plus total
    # antisymmetry of the flux
    rng = np.random.default_rng(5)
    ctx = s3_ctx(0.9)
    x, y, z = (rand_vec(S3, rng) for _ in range(3))
    p = S3.sample(rng, 1)[0]

    def gyz(c):
        gm = np.asarray(GS3(c), dtype=object)
        yv = np.asarray(y(c), dtype=object)
        zv = np.asarray(z(c), dtype=object)
        return [yv @ gm @ zv]
    jet = ch.differentiate(gyz, p, order=1)
    xv = np.asarray(x(p), float)
    lhs = float(np.einsum("j,j->", xv, jet.d1[0, :, 0]))
    (gmat,) = node0(ctx.metric_at(p))
    for sign in (+1, -1):
        dy, dz = node0(bismut_derivative(x, y, sign, ctx, p),
                       bismut_derivative(x, z, sign, ctx, p))
        rhs = (dy @ gmat @ np.asarray(z(p), float)
               + np.asarray(y(p), float) @ gmat @ dz)
        assert abs(lhs - rhs) < ch.EPS_ID


def test_bracket_route_flat():
    x = const_vec(BOX3, [1.0, 0.0, 0.0])
    y = const_vec(BOX3, [0.0, 1.0, 0.0])
    out = bismut_via_courant(x, y, +1, CTX_FLAT, (0.0, 0.0, 0.0))
    assert np.max(np.abs(out)) < 1e-14


@pytest.mark.parametrize("ctx_fn", [
    lambda: CTX_FLUX,
    lambda: s3_ctx(1.7),
])
def test_bracket_route_equals_derivative(ctx_fn):
    # oracle: the direct covariant derivative
    rng = np.random.default_rng(6)
    ctx = ctx_fn()
    chart = ctx.chart
    for _ in range(5):
        x, y = rand_vec(chart, rng), rand_vec(chart, rng)
        p = chart.sample(rng, 1)[0]
        for sign in (+1, -1):
            direct = bismut_derivative(x, y, sign, ctx, p)
            via = bismut_via_courant(x, y, sign, ctx, p)
            assert np.max(np.abs(direct - via)) < ch.EPS_ID


# -- torsion curvature ------------------------------------------------------

def test_curvature_reduces_to_riemann():
    ctx0 = GeneralizedMetricContext.create(GS3)
    p = (1.2, 0.5, 2.0)
    r = riemann_of(ch.differentiate(GS3, p, order=2))
    for sign in (+1, -1):
        assert np.allclose(bismut_curvature(sign, Geometry(ctx0, p)), r)


@pytest.mark.parametrize("lam", [0.8, 2.0])
def test_curvature_formula_vs_commutator(lam):
    ctx = s3_ctx(lam)
    p = (1.1, 0.4, 2.0)
    for sign in (+1, -1):
        formula = bismut_curvature(sign, Geometry(ctx, p))
        oracle = bismut_curvature_commutator(sign, ctx, p)
        assert formula.shape == oracle.shape
        assert np.max(np.abs(formula - oracle)) < ch.EPS_ID


def test_pair_exchange_symmetry_and_antisymmetries():
    rng = np.random.default_rng(7)
    ctx = s3_ctx(1.3)
    for p in S3.sample(rng, 4):
        rm, rp = node0(bismut_curvature(-1, Geometry(ctx, p)),
                       bismut_curvature(+1, Geometry(ctx, p)))
        assert np.max(np.abs(rm - np.einsum("ijkl->klij", rp))) < ch.EPS_ID
        for r in (rm, rp):
            assert np.max(np.abs(r + np.einsum("ijkl->jikl", r))) < ch.EPS_ID
            assert np.max(np.abs(r + np.einsum("ijkl->ijlk", r))) < ch.EPS_ID


def test_round_s3_flat_at_twice_volume():
    # the flux scale that parallelizes the torsion connections, found by a
    # numeric sweep and frozen: twice the unit volume form
    ctx = s3_ctx(2.0)
    for p in S3.sample(np.random.default_rng(8), 3):
        assert np.max(np.abs(bismut_curvature(-1, Geometry(ctx, p)))) \
            < ch.EPS_ID
    ctx = s3_ctx(1.0)
    r = bismut_curvature(-1, Geometry(ctx, (1.1, 0.4, 2.0)))
    assert np.max(np.abs(r)) > 1e-2


def test_flux_closure_validated():
    ctx = s3_ctx(1.0)
    for p in S3.sample(np.random.default_rng(9), 3):
        assert ctx.closure_residual(p) < ch.EPS_ID
