"""Compatible pairs of almost complex structures and their reduction."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import gk
from ggred import quotient as qt
from ggred.chart import Chart, ChartField, METRIC
from ggred.errors import ReductionConditionError
from ggred.genmetric import GeneralizedMetricContext
from ggred.scenarios import product_qg, s3xs1_gk
from point_routines import frames_at

RNG = np.random.default_rng(42)


def test_flat_kaehler_r4_validates():
    box = Chart("r4", (-2.0,) * 4, (2.0,) * 4)
    g = ChartField(box, METRIC, lambda c: np.eye(4))
    j0 = np.array([[0.0, -1, 0, 0], [1, 0, 0, 0],
                   [0, 0, 0, -1], [0, 0, 1, 0]])
    j = ChartField(box, ch.Valence(1, 1), lambda c: j0.copy())
    ctx = GeneralizedMetricContext.create(g)
    rep = gk.validate_bihermitian(gk.BiHermitianData(j, j), ctx,
                                  box.sample(RNG, 4),
                                  rng=np.random.default_rng(0))
    assert rep.passed
    assert max(c.residual for c in rep.conditions.values()) < 1e-12


def test_group_block_scenario_validates():
    s = s3xs1_gk({})
    rep = gk.validate_bihermitian(s.gk, s.ctx, s.chart.sample(RNG, 4),
                                  rng=np.random.default_rng(1))
    assert rep.passed
    assert max(c.residual for c in rep.conditions.values()) < ch.EPS_ID


def test_group_block_flux_is_closed_and_nontrivial():
    s = s3xs1_gk({})
    p = s.chart.sample(RNG, 1)[0]
    assert s.ctx.closure_residual(p) < ch.EPS_ID
    assert np.max(np.abs(s.ctx.flux_at(p))) > 0.01


def test_perturbed_structure_flagged():
    s = s3xs1_gk({"jplus_perturb": 1e-3})
    rep = gk.validate_bihermitian(s.gk, s.ctx, s.chart.sample(RNG, 3),
                                  rng=np.random.default_rng(2))
    assert not rep.passed
    assert rep.conditions["parallel"].residual > 1e-4


def test_wrong_flux_scale_breaks_parallelism_only():
    s = s3xs1_gk({"flux": -2.0})
    rep = gk.validate_bihermitian(s.gk, s.ctx, s.chart.sample(RNG, 2),
                                  rng=np.random.default_rng(3))
    assert rep.conditions["square"].passed
    assert rep.conditions["integrability"].passed
    assert not rep.conditions["parallel"].passed


def test_kaehler_product_validates():
    s = product_qg({})
    rep = gk.validate_bihermitian(s.gk, s.ctx, s.chart.sample(RNG, 4),
                                  rng=np.random.default_rng(4))
    assert rep.passed


# -- invariance of the horizontal spaces -------------------------------------

def test_tau_invariance_kaehler_product():
    s = product_qg({})
    for p in s.chart.sample(RNG, 3):
        dp, dm = gk.check_tau_invariance(s.gk, s.quotient, p)
        assert dp < ch.EPS_ID and dm < ch.EPS_ID


def test_tau_invariance_generic_violation():
    s = product_qg({})
    box = s.chart
    # rotate torus directions into the sphere block: not tau-invariant
    jbad_mat = np.zeros((4, 4))
    jbad_mat[0, 2], jbad_mat[2, 0] = -1.0, 1.0
    jbad_mat[1, 3], jbad_mat[3, 1] = -1.0, 1.0
    jbad = ChartField(box, ch.Valence(1, 1), lambda c: jbad_mat.copy())
    p = box.sample(RNG, 1)[0]
    dp, dm = gk.check_tau_invariance(gk.BiHermitianData(jbad, jbad),
                                     s.quotient, p)
    assert dp > 0.5


def test_defect_is_frame_independent():
    # the defect is defined through projectors, so rebuilding the projector
    # from differently ordered frames must not change it
    s = product_qg({})
    p = s.chart.sample(RNG, 1)[0]
    scn = s.quotient
    # a point is a one-node batch: node 0 of its arrays
    gmat = s.ctx.metric_at(p)[0]
    jv = np.asarray(s.gk.Jplus(p), dtype=float)
    tp = frames_at(s.ea, s.ctx, p)[0][0]
    defects = []
    for order in ([0, 1], [1, 0]):
        fr = tp[order]
        proj = sum(np.outer(v, v) @ gmat for v in fr)
        defect = np.linalg.norm((np.eye(4) - proj) @ jv @ proj, 2)
        defects.append(defect)
    assert abs(defects[0] - defects[1]) < ch.EPS_ID
    (dp,), _ = gk.check_tau_invariance(s.gk, scn, p)
    assert abs(defects[0] - dp) < ch.EPS_ID


# -- reduction ----------------------------------------------------------------

def test_reduce_kaehler_product_to_sphere():
    s = product_qg({})
    scn = s.quotient
    for q in scn.quotient.sample(RNG, 3):
        jp, jm, rep = gk.reduce_gk(s.gk, scn, q,
                                   rng=np.random.default_rng(5))
        expect = np.array([[0.0, -np.sin(q[0])],
                           [1.0 / np.sin(q[0]), 0.0]])
        jp, jm = jp[0], jm[0]
        assert jp.shape == jm.shape == expect.shape
        assert np.max(np.abs(jp - expect)) < 1e-6
        assert np.max(np.abs(jm - expect)) < 1e-6
        assert rep.passed
        assert max(c.residual for c in rep.conditions.values()) < 1e-6


def test_reduce_refuses_noninvariant_structure():
    s = product_qg({})
    box = s.chart
    jbad_mat = np.zeros((4, 4))
    jbad_mat[0, 2], jbad_mat[2, 0] = -1.0, 1.0
    jbad_mat[1, 3], jbad_mat[3, 1] = -1.0, 1.0
    jbad = ChartField(box, ch.Valence(1, 1), lambda c: jbad_mat.copy())
    q = s.quotient.quotient.sample(RNG, 1)[0]
    with pytest.raises(ReductionConditionError):
        gk.reduce_gk(gk.BiHermitianData(jbad, jbad), s.quotient, q)


def test_horizontal_curvature_type_exploratory():
    # on the structure-preserving quotient scenario the horizontal
    # connection curvature should be (1,1) for the reduced structure; here
    # it vanishes identically, which satisfies the condition trivially.
    # recorded as an observation, not a build gate.
    s = product_qg({})
    p = s.chart.sample(RNG, 1)[0]
    # one-node Batch entries at a point, as in a field body
    om = dual.tighten(qt.omega_two_form(s.quotient, p), 1)
    worst = max(abs(float(x)) for a in range(2) for x in om[:, a].ravel())
    assert worst < 1e-10
