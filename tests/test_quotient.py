"""Quotient reduction: validity, frames, curvatures, cross-checks."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import quotient as qt
from ggred.chart import ChartField, VECTOR
from ggred.dual import cos, sin
from ggred.errors import LiftError
from ggred.genmetric import Geometry, bismut_connection_coeffs
from ggred.scenarios import hopf, hopf_flux, product_qg, s3xt2
from point_routines import christoffel_of, frames_at, matrices_at, omega_at

RNG = np.random.default_rng(42)


def node0(*arrays):
    """Node 0 of each array: a point is a one-node batch."""
    return tuple(a[0] for a in arrays)


def rand_qfield(chart, rng):
    n = chart.dim
    c0 = rng.normal(size=n) * 0.5
    c1 = rng.normal(size=(n, n)) * 0.3

    def fn(c):
        return [c0[i] + sum(c1[i, j] * sin(c[j]) for j in range(n))
                for i in range(n)]
    return ChartField(chart, VECTOR, fn)


# -- extended-action validation ---------------------------------------------

def test_untwisted_isometric_action_validates():
    s = hopf({"flux": 0.0})
    rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(RNG, 5))
    assert rep.passed
    assert max(c.residual for c in rep.conditions.values()) < 1e-12


def test_solved_one_form_validates_with_flux():
    s = hopf_flux({"flux": 1.5})
    rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(RNG, 5))
    assert rep.passed


def test_noninvariant_exact_form_flagged():
    # exact but chi-dependent 1-form: the metric stays invariant while the
    # equivariance of the 1-form (folded into flux_match) fails
    s = hopf({"flux": 0.0})
    box = s.chart

    def bad_xi(c):
        out = np.empty(3, dtype=object)
        out[:] = 0.0
        out[2] = 0.1 * cos(c[2])
        return out
    ea = qt.ExtendedAction(s.ea.V, (ChartField(box, ch.COVECTOR, bad_xi),))
    rep = qt.validate_extended_action(ea, s.ctx, box.sample(RNG, 4))
    assert not rep.conditions["flux_match"].passed
    assert rep.conditions["invariance"].passed


@pytest.mark.parametrize("param,condition", [
    ("break_isotropy", "isotropy"),
    ("break_flux", "flux_match"),
    ("break_invariance", "invariance"),
])
def test_constructed_violations_name_their_condition(param, condition):
    s = hopf({"flux": 0.0, param: 0.05})
    rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(RNG, 4))
    assert condition in rep.failing()
    others = {"isotropy", "flux_match", "invariance"} - {condition}
    for name in others:
        assert rep.conditions[name].passed, (param, name)


# -- horizontal frames -------------------------------------------------------

def test_frames_coincide_without_one_form():
    s = hopf({"flux": 0.0})
    p = s.chart.sample(RNG, 1)[0]
    tp, tm = node0(*frames_at(s.ea, s.ctx, p))
    assert np.max(np.abs(tp - tm)) < 1e-12
    (gmat,) = node0(s.ctx.metric_at(p))
    vval = np.asarray(s.ea.V[0](p), float)
    for v in tp:
        assert abs(v @ gmat @ vval) < ch.EPS_ID


def test_frames_tilt_with_flux():
    s = hopf_flux({"flux": 1.5})
    p = s.chart.sample(RNG, 1)[0]
    tp, tm = node0(*frames_at(s.ea, s.ctx, p))
    (gmat,) = node0(s.ctx.metric_at(p))
    overlap = tp @ gmat @ tm.T
    angles = np.linalg.svd(overlap)[1]
    assert angles.min() < 1.0 - 1e-6  # genuinely different subspaces


def test_frame_defining_constraints():
    s = s3xt2({})
    for p in s.chart.sample(RNG, 3):
        tp, tm = node0(*frames_at(s.ea, s.ctx, p))
        assert tp.shape == (4, 5) and tm.shape == (4, 5)
        for sign, fr in ((+1, tp), (-1, tm)):
            rows = qt.constraint_rows(s.ea, s.ctx, p, sign)
            worst = max(abs(float(np.asarray(r, float) @ v))
                        for r in rows for v in fr)
            assert worst < ch.EPS_ID
        (gmat,) = node0(s.ctx.metric_at(p))
        assert np.max(np.abs(tp @ gmat @ tp.T - np.eye(4))) < ch.EPS_ID


def test_reduction_matrices_identities():
    s = s3xt2({})
    for p in s.chart.sample(RNG, 3):
        rm = matrices_at(s.ea, s.ctx, p)
        t, k, kinv = node0(rm.T, rm.K, rm.Kinv)
        assert np.max(np.abs(t - t.T)) < 1e-14
        assert np.all(np.linalg.eigvalsh(t) > 0)
        assert np.max(np.abs(kinv @ k - np.eye(s.ea.s))) < 1e-12
        # T from V^- equals T from V^+
        (gmat,) = node0(s.ctx.metric_at(p))
        vm = np.array([np.asarray(v, float)
                       for v in qt.v_pm_values(s.ea, s.ctx, p, -1)])
        assert (vm @ gmat @ vm.T).shape == t.shape
        assert np.max(np.abs(vm @ gmat @ vm.T - t)) < 1e-12


# -- connection curvature of the horizontal spaces ---------------------------

def test_omega_vanishes_on_product():
    s = product_qg({})
    p = s.chart.sample(RNG, 1)[0]
    tp, _ = frames_at(s.ea, s.ctx, p)
    from_xi, from_theta = omega_at(s.ea, s.ctx, +1, p, tp)
    assert np.max(np.abs(from_xi)) < 1e-12
    assert np.max(np.abs(from_theta)) < 1e-12


def test_omega_hopf_value():
    # frozen from the direct d(theta) route: the circle-bundle curvature on
    # a metric-orthonormal horizontal pair of the unit bundle is +/- 4
    s = hopf({"flux": 0.0})
    p = s.chart.sample(RNG, 1)[0]
    tp, _ = frames_at(s.ea, s.ctx, p)
    from_xi, from_theta = omega_at(s.ea, s.ctx, +1, p, tp)
    assert np.isclose(abs(from_theta[:, 0, 0, 1]), 4.0, atol=1e-10)
    assert np.max(np.abs(from_xi - from_theta)) < ch.EPS_ID


@pytest.mark.parametrize("maker", [lambda: hopf({"flux": 0.0}),
                                   lambda: hopf_flux({"flux": 1.3}),
                                   lambda: s3xt2({})])
def test_omega_two_routes_agree(maker):
    s = maker()
    rng = np.random.default_rng(3)
    for p in s.chart.sample(rng, 3):
        tp, tm = frames_at(s.ea, s.ctx, p)
        for sign, fr in ((+1, tp), (-1, tm)):
            a, b = omega_at(s.ea, s.ctx, sign, p, fr)
            assert np.max(np.abs(a - b)) < ch.EPS_ID


# -- reduced metric and flux --------------------------------------------------

def test_hopf_reduces_to_half_radius_sphere():
    s = hopf({"flux": 0.0})
    scn = s.quotient
    for q in scn.quotient.sample(RNG, 3):
        gred, hred = node0(*qt.reduce_metric_flux(scn, q))
        expect = np.diag([0.25, 0.25 * np.sin(q[0]) ** 2])
        assert gred.shape == expect.shape
        assert np.max(np.abs(gred - expect)) < 1e-12
        assert np.max(np.abs(hred)) == 0.0


def test_two_dimensional_quotient_has_no_flux():
    s = hopf_flux({"flux": 2.0})
    q = s.quotient.quotient.sample(RNG, 1)[0]
    _, hred = qt.reduce_metric_flux(s.quotient, q)
    assert np.max(np.abs(hred)) == 0.0


def test_padded_scenario_has_reduced_flux():
    s = s3xt2({})
    scn = s.quotient
    q = scn.quotient.sample(RNG, 1)[0]
    gred, hred = node0(*qt.reduce_metric_flux(scn, q))
    assert np.max(np.abs(hred)) > 0.05
    # independent recomputation through the flux field closure, whose
    # entries are one-node Batch values at a point
    f = qt.reduced_flux_field(scn)
    (again,) = node0(dual.tighten(np.asarray(f(q), dtype=object), 1))
    assert again.shape == hred.shape
    assert np.max(np.abs(again - hred)) < 1e-12
    # fully antisymmetric
    assert np.max(np.abs(hred + np.einsum("abc->bac", hred))) < 1e-12
    assert np.max(np.abs(hred + np.einsum("abc->acb", hred))) < 1e-12


def test_tau_plus_and_tau_minus_metrics_agree():
    for s in (hopf_flux({"flux": 1.7}), s3xt2({})):
        q = s.quotient.quotient.sample(RNG, 1)[0]
        gp = qt.reduced_metric_components(s.quotient, q, +1)
        gm = qt.reduced_metric_components(s.quotient, q, -1)
        assert np.max(np.abs(gp - gm)) < 1e-6


def test_degenerate_lift_raises():
    s = hopf({"flux": 0.0})
    scn = qt.QuotientScenario(s.ctx, s.ea, s.quotient.quotient,
                              lambda c: [0.0 * c[0], 0.0 * c[1]],
                              s.quotient.lift)
    q = scn.quotient.sample(RNG, 1)[0]
    with pytest.raises(LiftError):
        qt.reduce_metric_flux(scn, q)


# -- reduced connection --------------------------------------------------------

@pytest.mark.parametrize("maker", [lambda: product_qg({}),
                                   lambda: hopf({"flux": 0.0}),
                                   lambda: hopf_flux({"flux": 1.3}),
                                   lambda: s3xt2({})])
def test_reduced_connection_ambient_vs_direct(maker):
    s = maker()
    scn = s.quotient
    rng = np.random.default_rng(5)
    for _ in range(3):
        q = scn.quotient.sample(rng, 1)[0]
        x, y, z = (rand_qfield(scn.quotient, rng) for _ in range(3))
        ambient = qt.reduced_bismut(scn, x, y, z, q)
        direct = qt.reduced_bismut_direct(scn, x, y, z, q)
        assert ambient.shape == direct.shape == (1,)
        assert abs(ambient[0] - direct[0]) < 1e-6


def test_hopf_reduced_connection_is_levi_civita_of_quotient():
    s = hopf({"flux": 0.0})
    scn = s.quotient
    rng = np.random.default_rng(6)
    q = scn.quotient.sample(rng, 1)[0]
    x, y, z = (rand_qfield(scn.quotient, rng) for _ in range(3))
    (val,) = qt.reduced_bismut(scn, x, y, z, q)
    # direct Levi-Civita of the radius-1/2 round metric
    half = ChartField(scn.quotient, ch.METRIC,
                      lambda c: [[0.25, 0.0], [0.0, 0.25 * sin(c[0]) ** 2]])
    from ggred.genmetric import GeneralizedMetricContext
    ctxq = GeneralizedMetricContext.create(half)
    jy = ch.differentiate(y, q, order=1)
    dy, yv, gam, gq = node0(jy.d1, jy.value,
                            christoffel_of(ch.differentiate(half, q)),
                            ctxq.metric_at(q))
    xv = np.asarray(x(q), float)
    nab = np.einsum("j,ji->i", xv, dy) + np.einsum("ijk,j,k->i", gam, xv, yv)
    expect = float(nab @ gq @ np.asarray(z(q), float))
    assert abs(val - expect) < 1e-9


def test_vertical_derivative_identity():
    # pairing of the vertical covariant derivative against two minus-lifts
    # equals half the exterior derivative of the lowered minus generator
    s = hopf_flux({"flux": 1.1})
    scn = s.quotient
    rng = np.random.default_rng(7)
    q = scn.quotient.sample(rng, 1)[0]
    p = scn.lift(q)
    jxm = ch.differentiate(qt.xi_pm_field(s.ea, s.ctx, 0, -1), p, order=1)
    gmat, coeffs, dxm = node0(
        s.ctx.metric_at(p), bismut_connection_coeffs(-1, Geometry(s.ctx, p)),
        ch.exterior_derivative(jxm, 1))
    vval = np.asarray(s.ea.V[0](p), float)
    for _ in range(3):
        zq, wq = rand_qfield(scn.quotient, rng), rand_qfield(scn.quotient,
                                                             rng)
        zf = qt.lifted_field(scn, zq, -1)
        wf = qt.lifted_field(scn, wq, -1)
        jz = ch.differentiate(zf, p, order=1, chart=s.ctx.chart)
        dz, zv = node0(jz.d1, jz.value)
        nab = np.einsum("j,ji->i", vval, dz) \
            + np.einsum("ijk,j,k->i", coeffs, vval, zv)
        wval = np.asarray(wf(p), float)
        lhs = float(nab @ gmat @ wval)
        rhs = 0.5 * float(np.einsum("ij,i,j->", dxm,
                                    np.asarray(zf(p), float), wval))
        assert abs(lhs - rhs) < ch.EPS_ID


# -- reduced curvature -----------------------------------------------------------

@pytest.mark.parametrize("maker", [lambda: product_qg({}),
                                   lambda: hopf({"flux": 0.0}),
                                   lambda: hopf_flux({"flux": 1.3}),
                                   lambda: s3xt2({})])
def test_reduced_curvature_ambient_vs_direct(maker):
    s = maker()
    scn = s.quotient
    rng = np.random.default_rng(8)
    for q in scn.quotient.sample(rng, 3):
        lp = qt.LiftedPoint(scn, q)
        t = qt.reduced_curvature_quotient(lp)
        d = qt.reduced_curvature_direct(scn, q, lp.basis)
        assert np.max(np.abs(t - d)) < 1e-6


def test_hopf_sectional_curvature_value():
    s = hopf({"flux": 0.0})
    scn = s.quotient
    for q in scn.quotient.sample(RNG, 3):
        t = qt.reduced_curvature_quotient(qt.LiftedPoint(scn, q))
        assert np.isclose(t[:, 0, 1, 1, 0], 4.0, atol=1e-9)


def test_oneill_oracle_matches():
    rng = np.random.default_rng(9)
    for s in (hopf({"flux": 0.0}), product_qg({})):
        scn = s.quotient
        for q in scn.quotient.sample(rng, 3):
            lp = qt.LiftedPoint(scn, q)
            t = qt.reduced_curvature_quotient(lp)
            o = qt.oneill_curvature(scn, q, lp.basis)
            assert np.max(np.abs(t - o)) < 1e-6


def test_product_scenario_reduces_to_factor():
    s = product_qg({})
    scn = s.quotient
    q = scn.quotient.sample(RNG, 1)[0]
    gred, hred = node0(*qt.reduce_metric_flux(scn, q))
    expect = np.diag([1.0, np.sin(q[0]) ** 2])
    assert gred.shape == expect.shape
    assert np.max(np.abs(gred - expect)) < 1e-12
    t = qt.reduced_curvature_quotient(qt.LiftedPoint(scn, q))
    assert np.isclose(t[:, 0, 1, 1, 0], 1.0, atol=1e-10)
