"""One jet of stacked rows against the per-row jets it stands for.

The quotient and zero-locus reductions differentiate every generator,
sign and constraint through one jet of the stacked rows.  Each stacked
result is compared bit for bit with a jet taken per row, written out here.
The built-in scenarios have s = 1 whenever xi is nonzero and r = 1, where a
swapped stacking axis cannot show, so the cases of ``reduction_cases`` carry
two generators with nonzero 1-forms and two nonlinear constraints.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import localize as lz
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import VECTOR, ChartField
from ggred.errors import DomainError
from ggred.genmetric import Geometry, bismut_connection_coeffs
from ggred.scenarios import s3xt2
from reduction_cases import two_constraint_section, two_generator_action
from point_routines import christoffel_of


QUOTIENTS = [s3xt2({}).quotient, two_generator_action()]
QUOTIENT_IDS = ["s3xt2", "two_generators"]


def node0(*arrays):
    """Node 0 of each array: a point is a one-node batch."""
    return tuple(a[0] for a in arrays)


def _ambient_point(scn, seed):
    return scn.lift(scn.quotient.sample(np.random.default_rng(seed), 1)[0])


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("sign", [+1, -1])
def test_d_constraint_rows_match_per_row_jets(scn, sign):
    p = _ambient_point(scn, 3)
    per_row = np.stack([ch.exterior_derivative(ch.differentiate(
        qt.xi_pm_field(scn.ea, scn.ctx, a, sign), p, order=1), 1)
        for a in range(scn.ea.s)], 1)
    stacked = qt.d_constraint_rows(qt.action_jet(scn.ea, scn.ctx, p))[
        0 if sign > 0 else 1]
    assert stacked.shape == per_row.shape
    assert np.max(np.abs(per_row)) > 0.05
    assert np.array_equal(stacked, per_row)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_minus_derivative_matrix_matches_per_generator_jets(scn):
    p = _ambient_point(scn, 4)
    ea, ctx = scn.ea, scn.ctx
    (coeffs,) = node0(bismut_connection_coeffs(-1, Geometry(ctx, p)))
    per_row = []
    for a in range(ea.s):
        field = ChartField(ctx.chart, VECTOR,
                           lambda c, a=a: qt.v_pm_values(ea, ctx, c, -1)[a])
        jet = ch.differentiate(field, p, order=1)
        d1, value = node0(jet.d1, jet.value)
        per_row.append(d1 + np.einsum("ijk,k->ji", coeffs, value))
    per_row = np.array(per_row)
    (stacked,) = node0(qt._minus_derivative_matrix(scn, Geometry(scn.ctx, p)))
    assert np.max(np.abs(per_row)) > 0.05
    assert np.array_equal(stacked, per_row)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_point_frame_quotient_matches_per_generator_jets(scn):
    q = scn.quotient.sample(np.random.default_rng(5), 1)[0]
    pf = lz.point_frame_quotient(qt.LiftedPoint(scn, q))
    p = list(pf.point)
    g, dxi_cov, dv_cov_low, vv, xv = node0(pf.g, pf.dxi_cov, pf.dv_cov_low,
                                           pf.V, pf.xi)
    (gamma,) = node0(christoffel_of(ch.differentiate(scn.ctx.g, p)))
    dxi, dvl = [], []
    for vf, xf in zip(scn.ea.V, scn.ea.xi):
        jx = ch.differentiate(xf, p, order=1)
        dx, x = node0(jx.d1, jx.value)
        dxi.append(dx - np.einsum("mki,m->ki", gamma, x))
        jv = ch.differentiate(vf, p, order=1)
        dv, v = node0(jv.d1, jv.value)
        dv = dv + np.einsum("ikm,m->ki", gamma, v)
        dvl.append(np.einsum("ki,im->km", dv, g))
    assert np.max(np.abs(dxi)) > 0.05 and np.max(np.abs(dvl)) > 0.05
    assert np.array_equal(dxi_cov, np.array(dxi))
    assert np.array_equal(dv_cov_low, np.array(dvl))
    assert np.array_equal(vv, [vf(p) for vf in scn.ea.V])
    assert np.array_equal(xv, [np.asarray(xf(p), dtype=float)
                               for xf in scn.ea.xi])


def test_stacked_quotient_rows_keep_the_chart_bounds():
    scn = QUOTIENTS[1]
    p = list(scn.ctx.chart.upper)
    with pytest.raises(DomainError):
        qt.d_constraint_rows(qt.action_jet(scn.ea, scn.ctx, p))


def _per_constraint_jets(sd, p, order):
    return [ch.differentiate(s, p, order=order) for s in sd.sigma]


def test_section_gradients_match_per_constraint_jets():
    sd = two_constraint_section().sd
    p = [0.3, -0.5, 0.7]
    per_row = [j.d1.reshape(-1) for j in _per_constraint_jets(sd, p, 1)]
    (stacked,) = node0(sd.gradients(p))
    assert len(stacked) == sd.r == 2
    for got, want in zip(stacked, per_row):
        assert np.array_equal(np.asarray(got, dtype=float), want)


@pytest.mark.parametrize("sign", [+1, -1])
def test_nabla_pm_dsigma_matches_per_constraint_jets(sign):
    scn = two_constraint_section()
    p = [0.3, -0.5, 0.7]
    (coeffs,) = node0(bismut_connection_coeffs(sign, Geometry(scn.ctx, p)))
    per_row = np.array([
        j.d2.reshape(3, 3) - np.einsum("lij,l->ij", coeffs, j.d1.reshape(3))
        for j in _per_constraint_jets(scn.sd, p, 2)])
    (stacked,) = node0(sm.nabla_pm_dsigma(scn.sd.jet(p, order=2), sign,
                                          Geometry(scn.ctx, p)))
    assert np.max(np.abs(per_row[1])) > 0.05
    assert np.array_equal(stacked, per_row)


def test_point_frame_section_matches_per_constraint_jets():
    scn = two_constraint_section()
    u = [1.1]
    pf = lz.point_frame_section(sm.LocusPoint(scn, u))
    jets = _per_constraint_jets(scn.sd, list(pf.point), 2)
    dsigma, hess_sigma = node0(pf.dsigma, pf.hess_sigma)
    assert np.array_equal(dsigma, [j.d1.reshape(3) for j in jets])
    assert np.array_equal(hess_sigma, [j.d2.reshape(3, 3) for j in jets])


def test_section_jet_keeps_the_chart_bounds():
    with pytest.raises(DomainError):
        two_constraint_section().sd.jet([2.0, 0.0, 0.0])
