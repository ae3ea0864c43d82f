"""Zero-locus reduction: transverse matrix, connection, curvature."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import submanifold as sm
from ggred.chart import Chart, ChartField, METRIC, SCALAR, VECTOR
from ggred.dual import sin
from ggred.errors import RankError, TangencyError
from ggred.genmetric import (GeneralizedMetricContext, Geometry,
                             bismut_connection_coeffs)
from ggred.scenarios import sphere_in_flat
from point_routines import t_matrix_at

RNG = np.random.default_rng(42)


def node0(*arrays):
    """Node 0 of each array: a point is a one-node batch."""
    return tuple(a[0] for a in arrays)

BOX3 = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))
FLAT3 = GeneralizedMetricContext.create(ChartField(BOX3, METRIC,
                                                   lambda c: np.eye(3)))


def rand_tfield(chart, rng):
    n = chart.dim
    c0 = rng.normal(size=n) * 0.5
    c1 = rng.normal(size=(n, n)) * 0.3

    def fn(c):
        return [c0[i] + sum(c1[i, j] * sin(c[j]) for j in range(n))
                for i in range(n)]
    return ChartField(chart, VECTOR, fn)


# -- transverse Gram matrix ---------------------------------------------------

def test_t_matrix_linear_section():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),))
    tup, tlow = t_matrix_at(sd, FLAT3, (0.0, 0.3, -0.2))
    assert np.isclose(tup[0, 0], 1.0)
    assert np.isclose(tlow[0, 0], 1.0)


def test_t_matrix_unit_sphere():
    s = sphere_in_flat({})
    p = s.section.embed((1.0, 0.5))
    tup, tlow = t_matrix_at(s.section.sd, s.ctx, p)
    assert np.isclose(tup[0, 0], 4.0)
    assert np.isclose(tlow[0, 0], 0.25)


def test_t_matrix_two_sections_identity():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),
                         ChartField(BOX3, SCALAR, lambda c: [c[1]])))
    (tup,) = node0(t_matrix_at(sd, FLAT3, (0.0, 0.0, 0.4))[0])
    assert tup.shape == (2, 2)
    assert np.max(np.abs(tup - np.eye(2))) < 1e-12


def test_t_matrix_needs_locus_point():
    s = sphere_in_flat({})
    with pytest.raises(TangencyError):
        t_matrix_at(s.section.sd, s.ctx, (0.2, 0.2, 0.2))


def test_t_matrix_degenerate_rank():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),
                         ChartField(BOX3, SCALAR, lambda c: [2.0 * c[0]])))
    with pytest.raises(RankError):
        t_matrix_at(sd, FLAT3, (0.0, 0.1, 0.1))


# -- scenario structure -------------------------------------------------------

def test_scenario_maps_validate():
    s = sphere_in_flat({"c": 0.7})
    rng = np.random.default_rng(1)
    assert s.section.check_maps(rng) < 1e-10


def test_tangent_frame_orthonormal_and_tangent():
    s = sphere_in_flat({})
    scn = s.section
    for u in scn.nchart.sample(RNG, 3):
        p = scn.embed(u)
        fr, gmat, grads = node0(sm.tangent_frame(scn, u), s.ctx.metric_at(p),
                                scn.sd.gradients(p))
        assert np.max(np.abs(fr @ gmat @ fr.T - np.eye(2))) < ch.EPS_ID
        for grad in grads:
            for v in fr:
                assert abs(float(np.asarray(grad, float) @ v)) < ch.EPS_ID


# -- reduced connection -------------------------------------------------------

def test_flat_hyperplane_connection():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[2]]),))
    nchart = Chart("plane", (-1.4, -1.4), (1.4, 1.4))
    scn = sm.SubmanifoldScenario(FLAT3, sd, nchart,
                                 lambda u: [u[0], u[1], 0.0],
                                 lambda p: [p[0], p[1]])
    rng = np.random.default_rng(2)
    u = nchart.sample(rng, 1)[0]
    x, y = rand_tfield(nchart, rng), rand_tfield(nchart, rng)
    corrected, coeff_form = node0(*sm.reduced_connection_vector(scn, x, y, u))
    jy = ch.differentiate(y, u, order=1)
    plain = np.einsum("a,ai->i", np.asarray(x(u), float), jy.d1[0])
    assert corrected[:2].shape == plain.shape
    assert np.allclose(corrected[:2], plain, atol=1e-12)
    assert abs(corrected[2]) < 1e-12
    assert coeff_form.shape == corrected.shape
    assert np.allclose(coeff_form, corrected, atol=1e-12)


@pytest.mark.parametrize("cval", [0.0, 1.2])
def test_connection_three_routes_agree(cval):
    s = sphere_in_flat({"c": cval})
    scn = s.section
    rng = np.random.default_rng(3)
    ctxn = sm.induced_context(scn)
    for _ in range(3):
        u = scn.nchart.sample(rng, 1)[0]
        x, y, z = (rand_tfield(scn.nchart, rng) for _ in range(3))
        (ambient,) = sm.reduced_connection_sub(scn, x, y, z, u)
        jy = ch.differentiate(y, u, order=1)
        dy, yv, co, gn = node0(
            jy.d1, jy.value, bismut_connection_coeffs(-1, Geometry(ctxn, u)),
            ctxn.metric_at(u))
        xv = np.asarray(x(u), float)
        nab = np.einsum("j,ji->i", xv, dy) \
            + np.einsum("ijk,j,k->i", co, xv, yv)
        direct = float(nab @ gn @ np.asarray(z(u), float))
        assert abs(ambient - direct) < 1e-6
        corrected, coeff_form = node0(*sm.reduced_connection_vector(scn, x, y,
                                                                    u))
        assert corrected.shape == coeff_form.shape
        assert np.max(np.abs(corrected - coeff_form)) < ch.EPS_ID
        p = scn.embed(u)
        for grad in node0(scn.sd.gradients(p))[0]:
            assert abs(float(np.asarray(grad, float) @ corrected)) < ch.EPS_ID


def test_sphere_connection_flux_independent():
    # the induced values on the 2-sphere cannot see the ambient 3-form
    s0 = sphere_in_flat({"c": 0.0})
    s2 = sphere_in_flat({"c": 2.0})
    rng = np.random.default_rng(4)
    u = s0.section.nchart.sample(rng, 1)[0]
    x, y, z = (rand_tfield(s0.section.nchart, rng) for _ in range(3))
    (v0,) = sm.reduced_connection_sub(s0.section, x, y, z, u)
    (v2,) = sm.reduced_connection_sub(s2.section, x, y, z, u)
    assert abs(v0 - v2) < 1e-10


def test_extension_independence():
    # the tangential-parametric route equals differentiating an explicit
    # ambient extension built from the inverse chart map
    s = sphere_in_flat({"c": 0.8})
    scn = s.section
    rng = np.random.default_rng(5)
    u = scn.nchart.sample(rng, 1)[0]
    p = scn.embed(u)
    x, y, z = (rand_tfield(scn.nchart, rng) for _ in range(3))
    (route_a,) = sm.reduced_connection_sub(scn, x, y, z, u)

    def y_ext(coords):
        ub = scn.unembed(coords)
        demb = sm.embed_jacobian(scn, ub)
        return demb @ np.asarray(y(ub), dtype=object)
    jy = ch.differentiate(y_ext, p, order=1)
    demb = np.asarray(sm.embed_jacobian(scn, u), dtype=float)
    xv = demb @ np.asarray(x(u), float)
    zv = demb @ np.asarray(z(u), float)
    dy, yv, co, gmat = node0(jy.d1, jy.value,
                             bismut_connection_coeffs(-1, Geometry(s.ctx, p)),
                             s.ctx.metric_at(p))
    nab = np.einsum("j,ji->i", xv, dy) + np.einsum("ijk,j,k->i", co, xv, yv)
    route_b = float(nab @ gmat @ zv)
    assert abs(route_a - route_b) < ch.EPS_ID


def test_metric_compatibility_of_reduced_connection():
    s = sphere_in_flat({"c": 1.0})
    scn = s.section
    rng = np.random.default_rng(6)
    u = scn.nchart.sample(rng, 1)[0]
    x, y, z = (rand_tfield(scn.nchart, rng) for _ in range(3))
    gn = sm.induced_metric_field(scn)

    def gyz(c):
        gm = np.asarray(gn(c), dtype=object)
        yv = np.asarray(y(c), dtype=object)
        zv = np.asarray(z(c), dtype=object)
        return [yv @ gm @ zv]
    jet = ch.differentiate(gyz, u, order=1)
    lhs = float(np.einsum("j,j->", np.asarray(x(u), float), jet.d1[0, :, 0]))
    (rhs,) = sm.reduced_connection_sub(scn, x, y, z, u) \
        + sm.reduced_connection_sub(scn, x, z, y, u)
    assert abs(lhs - rhs) < ch.EPS_ID


def test_tangency_enforced():
    s = sphere_in_flat({})
    scn = s.section
    u = scn.nchart.sample(RNG, 1)[0]
    # a field with a radial component is not tangent after pushforward;
    # build one by perturbing the embedding jacobian route
    x = rand_tfield(scn.nchart, RNG)
    y = rand_tfield(scn.nchart, RNG)

    def sheared(uu):
        p = scn.embed(uu)
        return [p[0] + 0.1 * uu[0], p[1], p[2]]  # tangents pick up a
    bad = sm.SubmanifoldScenario(                # gradient component
        s.ctx, scn.sd, scn.nchart, sheared, scn.unembed)
    with pytest.raises(TangencyError):
        sm.reduced_connection_sub(bad, x, y, x, u)


# -- reduced curvature ---------------------------------------------------------

def test_flat_section_curvature_zero():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[2]]),))
    nchart = Chart("plane", (-1.4, -1.4), (1.4, 1.4))
    scn = sm.SubmanifoldScenario(FLAT3, sd, nchart,
                                 lambda u: [u[0], u[1], 0.0],
                                 lambda p: [p[0], p[1]])
    u = nchart.sample(RNG, 1)[0]
    assert np.max(np.abs(sm.reduced_curvature_sub(sm.LocusPoint(scn, u)))) \
        < 1e-12


@pytest.mark.parametrize("cval", [0.0, 0.5, 2.0])
def test_curvature_ambient_vs_direct(cval):
    s = sphere_in_flat({"c": cval})
    scn = s.section
    rng = np.random.default_rng(7)
    for u in scn.nchart.sample(rng, 3):
        lp = sm.LocusPoint(scn, u)
        t = sm.reduced_curvature_sub(lp)
        d = sm.reduced_curvature_sub_direct(scn, u, lp.basis)
        assert np.max(np.abs(t - d)) < 1e-6
        # unit-sphere sectional value, independent of the ambient 3-form
        assert np.isclose(t[:, 0, 1, 1, 0], 1.0, atol=1e-9)


def test_gauss_equation_oracle():
    s = sphere_in_flat({"c": 0.0})
    scn = s.section
    rng = np.random.default_rng(8)
    for u in scn.nchart.sample(rng, 3):
        lp = sm.LocusPoint(scn, u)
        t = sm.reduced_curvature_sub(lp)
        g = sm.gauss_equation_oracle(scn, u, lp.basis)
        assert t.shape == g.shape
        assert np.max(np.abs(t - g)) < 1e-9


def test_swap_identity_bridges_connections():
    s = sphere_in_flat({"c": 1.4})
    scn = s.section
    rng = np.random.default_rng(9)
    for u in scn.nchart.sample(rng, 3):
        p = scn.embed(u)
        jet = scn.sd.jet(p, order=2)
        fr, mm, mp = node0(sm.tangent_frame(scn, u),
                           sm.nabla_pm_dsigma(jet, -1, Geometry(scn.ctx, p)),
                           sm.nabla_pm_dsigma(jet, +1, Geometry(scn.ctx, p)))
        for a in range(scn.sd.r):
            nbm = np.einsum("ij,mi,rj->mr", mm[a], fr, fr)
            nbp = np.einsum("ij,mi,rj->mr", mp[a], fr, fr)
            assert np.max(np.abs(nbm - nbp.T)) < ch.EPS_ID


def test_flat_section_with_transverse_flux_stays_flat():
    # flat ambient, linear constraint, constant closed 3-form that pulls
    # back to zero on the plane: the ambient torsion curvature picks up
    # flux-squared terms, which the transverse correction must cancel
    from ggred.scenarios import antisym3
    h = ChartField(BOX3, ch.form_valence(3),
                   lambda c: antisym3(3, (0, 1, 2), 1.7))
    ctx = GeneralizedMetricContext(ChartField(BOX3, METRIC,
                                              lambda c: np.eye(3)), h)
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[2]]),))
    nchart = Chart("plane", (-1.4, -1.4), (1.4, 1.4))
    scn = sm.SubmanifoldScenario(ctx, sd, nchart,
                                 lambda u: [u[0], u[1], 0.0],
                                 lambda p: [p[0], p[1]])
    u = nchart.sample(RNG, 1)[0]
    lp = sm.LocusPoint(scn, u)
    t = sm.reduced_curvature_sub(lp)
    assert np.max(np.abs(t)) < 1e-12
    d = sm.reduced_curvature_sub_direct(scn, u, lp.basis)
    assert np.max(np.abs(d)) < 1e-12
