"""One jet of stacked rows against the per-row jets it stands for.

The quotient and zero-locus reductions differentiate every generator,
sign and constraint through one jet of the stacked rows.  Each stacked
result is compared bit for bit with a jet taken per row, written out here.
The built-in scenarios have s = 1 whenever xi is nonzero and r = 1, where a
swapped stacking axis cannot show, so the cases below carry two generators
with nonzero 1-forms and two nonlinear constraints.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import localize as lz
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import COVECTOR, SCALAR, VECTOR, Chart, ChartField
from ggred.dual import cos, sin
from ggred.errors import DomainError
from ggred.genmetric import GeneralizedMetricContext, bismut_connection_coeffs
from ggred.scenarios import antisym3, s3xt2


def _two_generator_action():
    """s3xt2 with a second generator and 1-form over a 3-dimensional
    quotient chart (theta, phi, t2), so that the tau lifts are square.
    Only the algebra is exercised; the action need not be valid."""
    s = s3xt2({}).quotient
    box = s.ctx.chart
    v2 = ChartField(box, VECTOR,
                    lambda c: [0.0, 0.2 * sin(c[1]), 0.0, 1.0, 0.3],
                    name="w")
    x2 = ChartField(box, COVECTOR,
                    lambda c: [0.6 * cos(c[0]), 0.0, 0.4, 0.0, 0.0],
                    name="eta")
    ea = qt.ExtendedAction((s.ea.V[0], v2), (s.ea.xi[0], x2))
    qchart = Chart("s2xS1", (box.lower[0], box.lower[1], box.lower[4]),
                   (box.upper[0], box.upper[1], box.upper[4]))
    return qt.QuotientScenario(
        s.ctx, ea, qchart, lambda c: [c[0], c[1], c[4]],
        lambda q: [q[0], q[1], 2.0, 1.0, q[2]])


QUOTIENTS = [s3xt2({}).quotient, _two_generator_action()]
QUOTIENT_IDS = ["s3xt2", "two_generators"]


def _ambient_point(scn, seed):
    return scn.lift(scn.quotient.sample(np.random.default_rng(seed), 1)[0])


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("sign", [+1, -1])
def test_d_constraint_rows_match_per_row_jets(scn, sign):
    p = _ambient_point(scn, 3)
    per_row = np.array([ch.exterior_derivative(ch.differentiate(
        qt.xi_pm_field(scn.ea, scn.ctx, a, sign), p, order=1), 1)
        for a in range(scn.ea.s)])
    stacked = qt.d_constraint_rows(scn.ea, scn.ctx, p)[0 if sign > 0 else 1]
    assert stacked.shape == per_row.shape
    assert np.max(np.abs(per_row)) > 0.05
    assert np.array_equal(stacked, per_row)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_minus_derivative_matrix_matches_per_generator_jets(scn):
    p = _ambient_point(scn, 4)
    ea, ctx = scn.ea, scn.ctx
    coeffs = bismut_connection_coeffs(-1, ctx, p)
    per_row = []
    for a in range(ea.s):
        field = ChartField(ctx.chart, VECTOR,
                           lambda c, a=a: qt.v_pm_values(ea, ctx, c, -1)[a])
        jet = ch.differentiate(field, p, order=1)
        per_row.append(jet.d1 + np.einsum("ijk,k->ji", coeffs, jet.value))
    per_row = np.array(per_row)
    stacked = qt._minus_derivative_matrix(scn, p)
    assert np.max(np.abs(per_row)) > 0.05
    assert np.array_equal(stacked, per_row)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_point_frame_quotient_matches_per_generator_jets(scn):
    q = scn.quotient.sample(np.random.default_rng(5), 1)[0]
    pf = lz.point_frame_quotient(scn, q)
    p = list(pf.point)
    gamma = ch.christoffel(scn.ctx.g, p)
    dxi, dvl = [], []
    for vf, xf in zip(scn.ea.V, scn.ea.xi):
        jx = ch.differentiate(xf, p, order=1)
        dxi.append(jx.d1 - np.einsum("mki,m->ki", gamma, jx.value))
        jv = ch.differentiate(vf, p, order=1)
        dv = jv.d1 + np.einsum("ikm,m->ki", gamma, jv.value)
        dvl.append(np.einsum("ki,im->km", dv, pf.g))
    assert np.max(np.abs(dxi)) > 0.05 and np.max(np.abs(dvl)) > 0.05
    assert np.array_equal(pf.dxi_cov, np.array(dxi))
    assert np.array_equal(pf.dv_cov_low, np.array(dvl))
    assert np.array_equal(pf.V, [vf(p) for vf in scn.ea.V])
    assert np.array_equal(pf.xi, [np.asarray(xf(p), dtype=float)
                                  for xf in scn.ea.xi])


def test_stacked_quotient_rows_keep_the_chart_bounds():
    scn = QUOTIENTS[1]
    p = list(scn.ctx.chart.upper)
    with pytest.raises(DomainError):
        qt.d_constraint_rows(scn.ea, scn.ctx, p)


def _two_constraint_section():
    """|x|^2 - 1 and x z in flat R^3 with constant flux; the zero locus
    contains the circle x = 0, which the locus chart parametrizes."""
    box = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))
    g = ChartField(box, ch.METRIC, lambda c: np.eye(3), name="flat")
    h = ChartField(box, ch.form_valence(3),
                   lambda c: antisym3(3, (0, 1, 2), 0.5), name="const3")
    sd = sm.SectionData((
        ChartField(box, SCALAR,
                   lambda c: [c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - 1.0]),
        ChartField(box, SCALAR, lambda c: [c[0] * c[2]])))
    return sm.SubmanifoldScenario(
        GeneralizedMetricContext(g, h), sd, Chart("circle", (0.3,), (2.8,)),
        lambda u: [0.0, cos(u[0]), sin(u[0])])


def _per_constraint_jets(sd, p, order):
    return [ch.differentiate(s, p, order=order) for s in sd.sigma]


def test_section_gradients_match_per_constraint_jets():
    sd = _two_constraint_section().sd
    p = [0.3, -0.5, 0.7]
    per_row = [j.d1.reshape(-1) for j in _per_constraint_jets(sd, p, 1)]
    stacked = sd.gradients(p)
    assert len(stacked) == sd.r == 2
    for got, want in zip(stacked, per_row):
        assert np.array_equal(np.asarray(got, dtype=float), want)


@pytest.mark.parametrize("sign", [+1, -1])
def test_nabla_pm_dsigma_matches_per_constraint_jets(sign):
    scn = _two_constraint_section()
    p = [0.3, -0.5, 0.7]
    coeffs = bismut_connection_coeffs(sign, scn.ctx, p)
    per_row = np.array([
        j.d2.reshape(3, 3) - np.einsum("lij,l->ij", coeffs, j.d1.reshape(3))
        for j in _per_constraint_jets(scn.sd, p, 2)])
    stacked = sm.nabla_pm_dsigma(scn, sign, p)
    assert np.max(np.abs(per_row[1])) > 0.05
    assert np.array_equal(stacked, per_row)


def test_point_frame_section_matches_per_constraint_jets():
    scn = _two_constraint_section()
    u = [1.1]
    basis = sm.tangent_frame(scn, u)
    pf = lz.point_frame_section(scn, u, basis)
    jets = _per_constraint_jets(scn.sd, list(pf.point), 2)
    assert np.array_equal(pf.dsigma, [j.d1.reshape(3) for j in jets])
    assert np.array_equal(pf.hess_sigma, [j.d2.reshape(3, 3) for j in jets])


def test_section_jet_keeps_the_chart_bounds():
    with pytest.raises(DomainError):
        _two_constraint_section().sd.jet([2.0, 0.0, 0.0])
