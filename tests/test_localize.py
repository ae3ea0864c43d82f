"""Exact localization: auxiliary elimination, model chains, Euler density."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import localize as lz
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.checks import mixed_multiplier_closed_form
from ggred.errors import SingularBodyError, SingularMetricError
from ggred.grassmann import GrassmannElement as G
from ggred.scenarios import (flat_torus, hopf, hopf_flux, product_qg,
                             round_sphere, s3xs1_gk, s3xt2, sphere_in_flat)
from point_routines import christoffel_of, matrices_at, riemann_of

RNG = np.random.default_rng(42)


# -- auxiliary polynomial elimination ------------------------------------------

def test_scalar_completing_the_square():
    # (1/2) a x^2 + b x  ->  -b^2 / (2 a)
    poly = lz.AuxiliaryPolynomial(2, ["x"])
    poly.add_quad("x", "x", 1.5)       # a = 3
    poly.add_lin("x", G.scalar(2, 2.0))
    out, sol = poly.eliminate(["x"])
    assert np.isclose(out.const.body, -(2.0 ** 2) / (2.0 * 3.0))
    assert np.isclose(sol["x"][0].body, -2.0 / 3.0)


def test_elimination_with_kept_coupling():
    # eliminating y out of (1/2)(x^2 + y^2) + c x y leaves the Schur
    # complement quadratic in x
    poly = lz.AuxiliaryPolynomial(2, ["x", "y"])
    poly.add_quad("x", "x", 0.5)
    poly.add_quad("y", "y", 0.5)
    poly.add_quad("x", "y", 0.7)
    out, sol = poly.eliminate(["y"])
    # S(x) = (1/2)(1 - 0.49) x^2
    assert np.isclose(out.q_entry("x", "x").body, 1.0 - 0.49)
    assert np.isclose(sol["y"][1]["x"].body, -0.7)


def test_nilpotent_block_geometric_series():
    # quadratic coefficient with a nilpotent part: the inverse is the
    # terminating series, checked against direct substitution
    n = 4
    t01 = G.generator(n, 0) * G.generator(n, 1)
    poly = lz.AuxiliaryPolynomial(n, ["x"])
    poly.add_quad("x", "x", G.scalar(n, 1.0) + t01)
    lin = G.scalar(n, 1.0) + 0.5 * t01
    poly.add_lin("x", lin)
    out, sol = poly.eliminate(["x"])
    # stationary x = -(2 + t)^{-1} (2 L) with Q = 2(1 + t01):
    # check S(x*) reproduced by substituting the solution back
    xstar = sol["x"][0]
    q = G.scalar(n, 2.0) + 2.0 * t01
    direct = 0.5 * xstar * q * xstar + lin * xstar
    assert (direct - out.const).max_abs() < 1e-12
    # and the stationarity equation Q x* + L = 0 holds exactly
    assert (q * xstar + lin).max_abs() < 1e-12


def test_singular_body_detected():
    poly = lz.AuxiliaryPolynomial(2, ["x"])
    poly.add_quad("x", "x", G(2, {0b11: 1.0}))   # body zero
    poly.add_lin("x", G.scalar(2, 1.0))
    with pytest.raises(SingularBodyError):
        poly.eliminate(["x"])


def test_odd_coefficient_rejected():
    poly = lz.AuxiliaryPolynomial(2, ["x"])
    with pytest.raises(ValueError):
        poly.add_lin("x", G.generator(2, 0))


def test_flux_free_multiplier_decouples():
    # with no flux and no 1-forms the field multipliers decouple from the
    # curvature constant: eliminating them changes nothing quartic
    s = hopf({"flux": 0.0})
    q = s.quotient.quotient.sample(RNG, 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(s.quotient, q))
    poly = lz.build_quotient_action(pf)
    const_before = poly.const
    out, _ = poly.eliminate([f"F{i}" for i in range(pf.n)])
    assert (out.const - const_before).max_abs() < 1e-14


def test_elimination_order_robust():
    s = s3xt2({})
    q = s.quotient.quotient.sample(RNG, 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(s.quotient, q))
    poly = lz.build_quotient_action(pf)
    delta, _ = poly.eliminate([f"pp{a}" for a in range(pf.s)]
                              + [f"mm{a}" for a in range(pf.s)])
    fa, _ = delta.eliminate([f"F{i}" for i in range(pf.n)])
    fa, _ = fa.eliminate([f"pm{a}" for a in range(pf.s)])
    fb, _ = delta.eliminate([f"pm{a}" for a in range(pf.s)])
    fb, _ = fb.eliminate([f"F{i}" for i in range(pf.n)])
    fc, _ = delta.eliminate([f"F{i}" for i in range(pf.n)]
                            + [f"pm{a}" for a in range(pf.s)])
    assert (fa.const - fb.const).max_abs() < 1e-12
    assert (fa.const - fc.const).max_abs() < 1e-12


# -- the localization chains -----------------------------------------------------

QUOTIENT_MAKERS = [lambda: hopf({"flux": 0.0}),
                   lambda: hopf_flux({"flux": 1.3}),
                   lambda: product_qg({}),
                   lambda: s3xt2({})]


@pytest.mark.parametrize("maker", QUOTIENT_MAKERS)
def test_quotient_chain_equals_reduced_curvature(maker):
    s = maker()
    scn = s.quotient
    rng = np.random.default_rng(3)
    for q in scn.quotient.sample(rng, 3):
        lp = qt.LiftedPoint(scn, q)
        pf = lz.point_frame_quotient(lp)   # a one-node batch
        exponent, _ = lz.localize_model(pf, "quotient")
        thm = qt.reduced_curvature_quotient(lp)
        target = lz.localized_exponent_target(pf, thm)
        assert (exponent - target).max_abs() < 1e-8


@pytest.mark.parametrize("cval", [0.0, 0.5, 2.0])
def test_section_chain_equals_reduced_curvature(cval):
    s = sphere_in_flat({"c": cval})
    scn = s.section
    rng = np.random.default_rng(4)
    for u in scn.nchart.sample(rng, 3):
        lp = sm.LocusPoint(scn, u)
        pf = lz.point_frame_section(lp)    # a one-node batch
        exponent, _ = lz.localize_model(pf, "section")
        thm = sm.reduced_curvature_sub(lp)
        target = lz.localized_exponent_target(pf, thm)
        assert (exponent - target).max_abs() < 1e-8


def test_chain_output_is_pure_quartic():
    s = s3xt2({})
    q = s.quotient.quotient.sample(RNG, 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(s.quotient, q))
    exponent, _ = lz.localize_model(pf, "quotient")
    assert exponent.degrees() <= {4}
    for k in (0, 1, 2, 3, 5, 6):
        assert exponent.max_abs_degree(k) < 1e-12


def test_eliminated_multiplier_matches_closed_form():
    for maker in (lambda: hopf_flux({"flux": 1.1}), lambda: s3xt2({})):
        s = maker()
        q = s.quotient.quotient.sample(RNG, 1)[0]
        lp = qt.LiftedPoint(s.quotient, q)
        pf = lz.point_frame_quotient(lp)
        _, details = lz.localize_model(pf, "quotient")
        closed = mixed_multiplier_closed_form(pf)
        for a in range(pf.s):
            assert (closed[a] - details[f"pm{a}"][0]).max_abs() < 1e-12


def test_point_frame_consistency_with_chart_calculus():
    from ggred.genmetric import Geometry, bismut_curvature
    s = hopf_flux({"flux": 0.9})
    q = s.quotient.quotient.sample(RNG, 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(s.quotient, q))
    p = list(pf.point)
    pairs = [(pf.g, s.ctx.metric_at(p)),
             (pf.gamma, christoffel_of(ch.differentiate(s.ctx.g, p))),
             (pf.r_minus, bismut_curvature(-1, Geometry(s.ctx, p))),
             (pf.K_ab, matrices_at(s.ea, s.ctx, p).K)]
    for got, want in pairs:     # a point is a one-node batch
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-14
    assert np.max(np.abs(pf.ginv[0] @ pf.g[0] - np.eye(pf.n))) \
        < 1e-12


# -- Euler characteristic ----------------------------------------------------------

def test_euler_sphere():
    s = round_sphere({"radius": 1.0})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order=16)
    assert abs(chi - 2.0) < 0.02


def test_euler_sphere_radius_independent():
    s = round_sphere({"radius": 2.5})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order=16)
    assert abs(chi - 2.0) < 0.02


def test_euler_flat_torus_exact_zero():
    s = flat_torus({"dim": 2})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order=8)
    assert abs(chi) < 1e-10


def test_euler_product_of_spheres():
    s = round_sphere({"factors": 2})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order=6)
    assert abs(chi - 4.0) < 0.08


def test_euler_flux_block_reports_zero():
    # the flux-twisted density on the parallelized group block vanishes
    # pointwise, so the estimate is exactly the expected Euler number 0
    s = s3xs1_gk({})
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order=4)
    assert abs(chi) < 1e-12


def test_euler_density_orientation():
    # the density of the unit sphere equals the Gauss curvature (+1)
    from ggred import chart as ch2
    s = round_sphere({"radius": 1.0})
    p = (np.pi / 2, 1.0)
    rarr = riemann_of(ch2.differentiate(s.ctx.g, p, order=2))
    gmat = s.ctx.metric_at(p)
    dens = lz.euler_density(rarr, gmat)
    assert np.isclose(dens, 1.0, atol=1e-12)


def test_field_elimination_matches_hand_derived_terms():
    # eliminating only the fields F from the gauged action must (i) shift
    # the mixed-multiplier quadratic from -G_ab to -T_ab and (ii) add the
    # flux-contracted 1-form coupling to its linear term; both compared
    # against independently hand-built coefficients at one point
    s = hopf_flux({"flux": 1.2})
    q = s.quotient.quotient.sample(np.random.default_rng(0), 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(s.quotient, q))
    poly = lz.build_quotient_action(pf)
    lin_before = {a: poly.l_entry(f"pm{a}") for a in range(pf.s)}
    out, _ = poly.eliminate([f"F{i}" for i in range(pf.n)])
    m, ngen = pf.m, 2 * pf.m
    for a in range(pf.s):
        for b in range(pf.s):
            got = out.q_entry(f"pm{a}", f"pm{b}")
            assert abs(got.body.v + pf.T_ab[a, b]) < 1e-12
            assert got.soul().max_abs() < 1e-12
        hxi = ch.node_einsum("jkm,mi,i->jk", pf.H, pf.ginv, pf.xi[a])
        coeff = ch.node_einsum("jk,rj,nk->rn", hxi, pf.minus_frame,
                               pf.plus_frame)
        expect = lin_before[a] + lz._quad_sum(ngen, m, 0.5 * coeff, m, 0)
        assert (out.l_entry(f"pm{a}") - expect).max_abs() < 1e-12


def test_inconsistent_zero_mode_frame_rejected():
    from ggred.errors import FrameMismatchError
    s = sphere_in_flat({})
    scn = s.section
    u = scn.nchart.sample(np.random.default_rng(1), 1)[0]
    lp = sm.LocusPoint(scn, u)
    lp.basis = np.eye(3)[:2]   # coordinate plane, not tangent to the sphere
    with pytest.raises(FrameMismatchError):
        lz.point_frame_section(lp)


# -- composition: zero locus first, then the circle quotient -------------------

def _three_sphere_in_flat():
    """Unit 3-sphere cut out of flat R^4, parametrized so the induced
    metric matches the circle-bundle scenario's ambient block."""
    from ggred.dual import cos, sin
    from ggred.genmetric import GeneralizedMetricContext
    box = ch.Chart("r4", (-1.4,) * 4, (1.4,) * 4)
    ctx = GeneralizedMetricContext.create(
        ch.ChartField(box, ch.METRIC, lambda c: np.eye(4)))
    sig = ch.ChartField(
        box, ch.SCALAR,
        lambda c: [c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + c[3] ** 2 - 1.0])
    nchart = ch.Chart("s3", (0.3, 0.3, 0.3),
                      (np.pi - 0.3, 2 * np.pi - 0.3, 4 * np.pi - 0.3))

    def embed(u):
        th, ph, chi = u
        return [cos(th / 2) * cos((chi + ph) / 2),
                cos(th / 2) * sin((chi + ph) / 2),
                sin(th / 2) * cos((chi - ph) / 2),
                sin(th / 2) * sin((chi - ph) / 2)]
    return sm.SubmanifoldScenario(ctx, sm.SectionData((sig,)), nchart, embed)


def test_composed_reduction_endpoints():
    # first stage: the locus chain on S^3 in flat R^4 reproduces the round
    # 3-sphere geometry that the circle-bundle scenario takes as ambient;
    # second stage: the quotient chain on that ambient reproduces the
    # half-radius sphere.  Together these validate the combined model
    # through its reduced endpoints.
    scn3 = _three_sphere_in_flat()
    rng = np.random.default_rng(11)
    scn3.check_maps(rng)
    s_bundle = hopf({"flux": 0.0})
    for u in scn3.nchart.sample(rng, 2):
        induced = sm.induced_metric_field(scn3)
        got = np.array([[float(x) for x in row]
                        for row in np.asarray(induced(u), dtype=object)])
        expect = np.asarray(s_bundle.ctx.g(u), dtype=float)
        assert np.max(np.abs(got - expect)) < 1e-12
        lp = sm.LocusPoint(scn3, u)
        pf = lz.point_frame_section(lp)    # a one-node batch
        exponent, _ = lz.localize_model(pf, "section")
        thm = sm.reduced_curvature_sub(lp)
        target = lz.localized_exponent_target(pf, thm)
        assert (exponent - target).max_abs() < 1e-8
        # round 3-sphere of unit radius: all sectional values are 1
        assert np.isclose(thm[:, 0, 1, 1, 0], 1.0, atol=1e-9)
        assert np.isclose(thm[:, 0, 2, 2, 0], 1.0, atol=1e-9)
    # second stage endpoint, on the same ambient geometry
    q = s_bundle.quotient.quotient.sample(rng, 1)[0]
    lp = qt.LiftedPoint(s_bundle.quotient, q)
    pf2 = lz.point_frame_quotient(lp)
    exponent, _ = lz.localize_model(pf2, "quotient")
    thm2 = qt.reduced_curvature_quotient(lp)
    assert (exponent - lz.localized_exponent_target(pf2, thm2)).max_abs() \
        < 1e-8
    assert np.isclose(thm2[:, 0, 1, 1, 0], 4.0, atol=1e-9)


def test_euler_density_indefinite_metric_is_singular_metric_error():
    with pytest.raises(SingularMetricError, match="positive definite"):
        lz.euler_density(np.zeros((2, 2, 2, 2)), np.diag([1.0, -1.0]))
