"""One rule for degenerate float matrices: ``chart.inverse``.

Every float inverse and definiteness gate raises its named error on a
matrix whose max|m| max|m^-1| reaches 1 / PIVOT_RTOL, and on a NaN entry.
The ill-conditioned cases come from ``product_qg`` with the second torus
generator tilted to V_2 = d_t1 + 1e-7 d_t2, which makes G_ab, T_ab and
the tau projector's T of condition about 1e14.  The frames raise
RankError naming the rank they got, and the NaN gates and
``GrassmannElement.max_abs`` let no NaN through.
"""

from dataclasses import replace

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks
from ggred import localize as lz
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import COVECTOR, METRIC, SCALAR, VECTOR, Chart, ChartField
from ggred.errors import (AsymmetryError, FrameMismatchError, LiftError,
                          RankError, SingularBodyError, SingularMetricError,
                          TangencyError)
from ggred.genmetric import GeneralizedMetricContext
from ggred.grassmann import GrassmannElement as G
from ggred.grassmann import pfaffian
from ggred.scenarios import product_qg, sphere_in_flat
from point_routines import (christoffel_of, frames_at, matrices_at,
                            projector_at, t_matrix_at)

NAN = float("nan")
TILT = 1e-7
# G_ab of the tilted action: condition about 4e14
TILTED_GRAM = np.array([[1.0, 1.0], [1.0, 1.0 + TILT ** 2]])
P = (1.0, 1.0, 1.0, 2.0)   # product_qg's lift of the quotient point (1, 1)


def negate_the_metric_inverse(monkeypatch):
    """Make ``chart.inverse`` return the metric's inverse (the matrix it
    names "metric") with the wrong sign."""
    inverse = ch.inverse

    def negated(m, error=SingularMetricError, what="metric", definite=False):
        inv = inverse(m, error, what, definite)
        return -inv if what == "metric" else inv
    monkeypatch.setattr(ch, "inverse", negated)


def qg_action(v2=(0.0, 0.0, 1.0, TILT), xi1=None, xi2=None):
    """product_qg with generators d_t1 and v2 and constant forms xi1, xi2."""
    s = product_qg({})
    box = s.ctx.chart

    def const(valence, comps, name):
        if comps is None:
            return qt.zero_xi(box)
        return ChartField(box, valence, lambda c: np.array(comps, dtype=float),
                          name=name)
    ea = qt.ExtendedAction(
        (ChartField(box, VECTOR, lambda c: np.eye(4)[2], name="t1"),
         const(VECTOR, v2, "v2")),
        (const(COVECTOR, xi1, "xi1"), const(COVECTOR, xi2, "xi2")))
    return replace(s.quotient, ea=ea)


# -- chart.inverse: the one rule ----------------------------------------------

def test_inverse_raises_at_exactly_the_bound_and_passes_below_it():
    at = np.diag([1.0, ch.PIVOT_RTOL])
    with pytest.raises(SingularMetricError, match="m numerically singular"):
        ch.inverse(at, SingularMetricError, "m")
    below = np.diag([1.0, 2 * ch.PIVOT_RTOL])
    assert np.array_equal(ch.inverse(below, SingularMetricError, "m"),
                          np.diag([1.0, 0.5 / ch.PIVOT_RTOL]))


def test_inverse_keeps_the_bits_of_a_stack_of_inverses():
    rng = np.random.default_rng(3)
    a = np.moveaxis(rng.normal(size=(5, 5, 7)), -1, 0)    # 7 nodes
    a = np.einsum("nij,nkj->nik", a, a) + 5.0 * np.eye(5)
    inv = ch.inverse(a, RankError, "a", definite=True)
    assert inv.shape == (7, 5, 5)
    assert np.allclose(inv, np.linalg.inv(a), rtol=1e-13, atol=0.0)
    for k in range(7):
        assert np.array_equal(inv[k], ch.inverse(a[k], RankError, "a"))


def test_inverse_with_definite_rejects_an_indefinite_matrix():
    m = np.diag([1.0, -1.0])
    assert np.array_equal(ch.inverse(m, RankError, "m"), m)
    with pytest.raises(RankError, match="m not positive definite"):
        ch.inverse(m, RankError, "m", definite=True)


def _stack_failing_at_node_9(last):
    """64 symmetric positive definite 3x3 matrices, node 9's last diagonal
    entry replaced by ``last``."""
    a = np.moveaxis(np.random.default_rng(4).normal(size=(3, 3, 64)), -1, 0)
    a = np.einsum("nij,nkj->nik", a, a) + np.eye(3)
    a[9, :, 2] = a[9, 2, :] = 0.0
    a[9, 2, 2] = last
    return a


def test_inverse_names_the_singular_node_of_a_stack():
    with pytest.raises(RankError,
                       match="m numerically singular: .* at node 9$"):
        ch.inverse(_stack_failing_at_node_9(0.0), RankError, "m")


def test_inverse_names_the_indefinite_node_of_a_stack():
    a = _stack_failing_at_node_9(-1.0)
    assert ch.inverse(a, RankError, "m").shape == (64, 3, 3)
    with pytest.raises(RankError,
                       match="m not positive definite: .* at node 9$"):
        ch.inverse(a, RankError, "m", definite=True)


# -- the metric's inverse ----------------------------------------------------

def test_metric_inverse_rejects_the_tilted_gram_matrix():
    with pytest.raises(SingularMetricError, match="metric numerically"):
        ch.inverse(TILTED_GRAM, definite=True)


def test_metric_inverse_rejects_an_indefinite_metric():
    with pytest.raises(SingularMetricError, match="metric not positive"):
        ch.inverse(np.diag([1.0, -1.0]), definite=True)


@pytest.mark.parametrize("g", [[[1.0, NAN], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, NAN]]])
def test_metric_inverse_rejects_a_nan_entry(g):
    with pytest.raises(SingularMetricError):
        ch.inverse(np.array(g), definite=True)


def test_metric_inverse_rejects_a_nan_stack():
    g = np.repeat(np.eye(3)[None], 8, axis=0)
    g[5, 1, 2] = g[5, 2, 1] = NAN
    with pytest.raises(SingularMetricError):
        ch.inverse(g, definite=True)
    g[5, 1, 2] = g[5, 2, 1] = 0.0
    assert np.array_equal(ch.inverse(g, definite=True), g)


@pytest.mark.parametrize("g", [[[1.0, NAN], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, NAN]]])
def test_christoffel_rejects_a_nan_metric(g):
    jet = ch.PointJet((0.0, 0.0), np.array(g), np.zeros((2, 2, 2)))
    with pytest.raises(SingularMetricError, match="not symmetric"):
        christoffel_of(jet)


# -- K_ab and T_ab of the extended action -------------------------------------

def test_reduction_matrices_reject_the_tilted_action_at_t():
    scn = qg_action()
    with pytest.raises(RankError, match="T_ab numerically singular"):
        matrices_at(scn.ea, scn.ctx, P)


def test_reduction_matrices_reject_a_nearly_singular_k():
    # K = diag(1 - c, 1) with c = 1 - 1e-14, while T = diag(1 + c^2, 1)
    scn = qg_action(v2=(0.0, 0.0, 0.0, 1.0),
                    xi1=(0.0, 0.0, 1.0 - 1e-14, 0.0))
    with pytest.raises(RankError, match="K_ab numerically singular"):
        matrices_at(scn.ea, scn.ctx, P)


def test_reduction_matrices_reject_a_nan_form():
    scn = qg_action(v2=(0.0, 0.0, 0.0, 1.0), xi1=(NAN, 0.0, 0.0, 0.0))
    with pytest.raises(RankError):
        matrices_at(scn.ea, scn.ctx, P)


def test_reduction_matrices_require_a_definite_t(monkeypatch):
    # a g^-1 of the wrong sign makes T = I - 4 I indefinite while K = -I
    scn = qg_action(v2=(0.0, 0.0, 0.0, 1.0), xi1=(0.0, 0.0, 2.0, 0.0),
                    xi2=(0.0, 0.0, 0.0, 2.0))
    negate_the_metric_inverse(monkeypatch)
    with pytest.raises(RankError, match="T_ab not positive definite"):
        matrices_at(scn.ea, scn.ctx, P)


# -- the tau projector and the tau frames -------------------------------------

@pytest.mark.parametrize("sign", [+1, -1])
def test_tau_projector_rejects_the_tilted_action(sign):
    scn = qg_action()
    with pytest.raises(RankError, match="numerically singular"):
        projector_at(scn.ea, scn.ctx, P, sign)


def test_tau_projector_rejects_a_nan_generator():
    scn = qg_action(v2=(0.0, 0.0, NAN, 1.0))
    with pytest.raises(RankError):
        projector_at(scn.ea, scn.ctx, P, +1)


def test_tau_projector_requires_a_definite_t():
    # g negative on the generator: T = -1 is regular but not definite
    box = product_qg({}).ctx.chart
    ctx = GeneralizedMetricContext.create(ChartField(
        box, METRIC, lambda c: np.diag([1.0, 1.0, 1.0, -1.0])))
    ea = qt.ExtendedAction((ChartField(box, VECTOR, lambda c: np.eye(4)[3]),),
                           (qt.zero_xi(box),))
    with pytest.raises(RankError, match="not positive definite"):
        projector_at(ea, ctx, P, +1)


def test_horizontal_frames_reject_a_degenerate_minus_side():
    # V_2^- = (1 - c) d_t2 with c = 1 - 1e-7; V_2^+ = (1 + c) d_t2
    scn = qg_action(v2=(0.0, 0.0, 0.0, 1.0), xi2=(0.0, 0.0, 0.0, 1.0 - TILT))
    assert np.allclose(projector_at(scn.ea, scn.ctx, P, +1)[:, 3], 0.0)
    with pytest.raises(RankError, match="V\\^- rows numerically singular"):
        frames_at(scn.ea, scn.ctx, P)


# -- the reduced metric and the quotient frame --------------------------------

def squeezed_quotient():
    """product_qg with the quotient's phi axis stretched 1e7 times: the
    reduced metric is diag(1, 1e-14 sin^2 theta)."""
    s = product_qg({})
    qchart = Chart("s2", (0.25, 0.2e7),
                   (np.pi - 0.25, (2 * np.pi - 0.2) * 1e7))
    return replace(s.quotient, quotient=qchart,
                   project=lambda c: [c[0], 1e7 * c[1]],
                   lift=lambda q: [q[0], q[1] * 1e-7, 1.0, 2.0])


def test_lifted_metric_rejects_a_squeezed_quotient():
    scn = squeezed_quotient()
    with pytest.raises(LiftError, match="reduced metric numerically singular"):
        qt.quotient_frame(scn, (1.0, 1e7))
    with pytest.raises(LiftError):
        qt.reduce_metric_flux(scn, (1.0, 1e7))


def test_lifted_metric_rejects_an_indefinite_reduced_metric():
    s = product_qg({})
    ctx = GeneralizedMetricContext.create(ChartField(
        s.ctx.chart, METRIC, lambda c: np.diag([1.0, -1.0, 1.0, 1.0])))
    with pytest.raises(LiftError, match="reduced metric not positive"):
        qt.quotient_frame(replace(s.quotient, ctx=ctx), (1.0, 1.0))


def test_lifted_metric_rejects_a_nan_projection():
    s = product_qg({})
    scn = replace(s.quotient, project=lambda c: [c[0], NAN * c[1]])
    with pytest.raises(LiftError):
        qt.quotient_frame(scn, (1.0, 1.0))


# -- the Gram matrix of the O'Neill oracle ------------------------------------

def test_oneill_rejects_the_tilted_gram_matrix():
    with pytest.raises(RankError, match="Gram matrix of the V_a numerically"):
        qt.oneill_curvature(qg_action(), (1.0, 1.0), np.eye(2))


def test_oneill_rejects_a_nan_generator():
    with pytest.raises(RankError, match="Gram matrix of the V_a"):
        qt.oneill_curvature(qg_action(v2=(0.0, 0.0, NAN, 1.0)), (1.0, 1.0),
                            np.eye(2))


# -- the transverse Gram matrix of d sigma ------------------------------------

BOX3 = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))


def flat3(entry=1.0):
    return GeneralizedMetricContext.create(ChartField(
        BOX3, METRIC, lambda c: np.diag([1.0, 1.0, entry])))


def tilted_section():
    return sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),
                           ChartField(BOX3, SCALAR,
                                      lambda c: [c[0] + TILT * c[1]])))


def test_t_matrix_rejects_a_tilted_section():
    with pytest.raises(RankError, match="transverse Gram matrix of d sigma "
                                        "numerically singular"):
        t_matrix_at(tilted_section(), flat3(), (0.0, 0.0, 0.1))


def test_t_matrix_requires_a_definite_matrix(monkeypatch):
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),))
    negate_the_metric_inverse(monkeypatch)
    with pytest.raises(RankError, match="not positive definite"):
        t_matrix_at(sd, flat3(), (0.0, 0.0, 0.1))


def test_t_matrix_rejects_a_nan_metric():
    sd = sm.SectionData((ChartField(BOX3, SCALAR, lambda c: [c[0]]),))
    with pytest.raises(SingularMetricError):
        t_matrix_at(sd, flat3(NAN), (0.0, 0.0, 0.1))


# -- the body of an eliminated multiplier block -------------------------------

def block(xy, yy):
    """Two unknowns whose block body is [[1, xy], [xy, yy]]."""
    poly = lz.AuxiliaryPolynomial(2, ["x", "y"])
    poly.add_quad("x", "x", G.scalar(2, 0.5))
    poly.add_quad("x", "y", G.scalar(2, xy))
    poly.add_quad("y", "y", G.scalar(2, 0.5 * yy))
    poly.add_lin("x", G.scalar(2, 1.0))
    return poly


@pytest.mark.parametrize("xy, yy", [(1.0, 1.0 + TILT ** 2), (NAN, 1.0),
                                    (0.0, NAN)])
def test_eliminate_rejects_a_degenerate_body(xy, yy):
    with pytest.raises(SingularBodyError, match="block body of group"):
        block(xy, yy).eliminate(["x", "y"])


def test_eliminate_keeps_a_regular_body():
    reduced, sol = block(0.5, 1.0).eliminate(["x", "y"])
    assert np.isclose(sol["x"][0].body, -4.0 / 3.0)


# -- the closed-form multiplier's T_ab ----------------------------------------

@pytest.fixture(scope="module")
def quotient_frame_data():
    scn = product_qg({}).quotient
    return lz.point_frame_quotient(qt.LiftedPoint(scn, (1.0, 1.0)))


@pytest.mark.parametrize("tab", [TILTED_GRAM, [[1.0, NAN], [NAN, 1.0]]])
def test_closed_form_rejects_a_degenerate_t(quotient_frame_data, tab):
    pf = replace(quotient_frame_data, T_ab=np.asarray(tab))
    with pytest.raises(RankError, match="T_ab"):
        checks.mixed_multiplier_closed_form(pf)


# -- frames name the rank they got --------------------------------------------

@pytest.mark.parametrize("vectors, got", [([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0]], 2),
                                          ([[1.0, 0.0, 0.0], [0.0, NAN, 1.0],
                                            [0.0, 1.0, 0.0]], 2)])
def test_orthonormal_frame_names_its_rank(vectors, got):
    # a metric carries a node axis: here of one node
    with pytest.raises(RankError,
                       match=f"frame has rank {got} at node 0, expected 3"):
        ch.orthonormal_frame(vectors, np.eye(3)[None], 3, "frame")


@pytest.mark.parametrize("diag, got", [((1.0, -1.0, 1.0), 2),
                                       ((-1.0, -2.0, -3.0), 0)])
def test_orthonormal_frame_drops_a_negative_norm_quietly(diag, got):
    # an indefinite metric: RankError, with no invalid-value warning
    with np.errstate(all="raise"), pytest.raises(
            RankError, match=f"frame has rank {got} at node 0"):
        ch.orthonormal_frame(np.eye(3), np.diag(diag)[None], 3, "frame")
    with np.errstate(all="raise"), pytest.raises(
            SingularMetricError, match="positive definite"):
        lz.euler_density(np.zeros((1, 2, 2, 2, 2)),
                         np.diag(diag[:2])[None])


def test_orthonormal_frame_is_g_orthonormal_in_input_order():
    g = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 3.0]])
    basis = ch.orthonormal_frame(np.eye(3), g[None], 3, "frame")
    assert basis.shape == (1, 3, 3)
    basis = basis[0]
    assert np.allclose(basis @ g @ basis.T, np.eye(3), atol=1e-14)
    assert basis[0, 1] == basis[0, 2] == 0.0


@pytest.mark.parametrize("scale, got", [(0.0, 1), (NAN, 0)])
def test_tangent_frame_names_its_rank(scale, got):
    scn = sphere_in_flat({}).section
    flat = replace(scn, embed=lambda u: scn.embed([u[0], scale * u[1] + 0.5]))
    with pytest.raises(RankError, match=f"tangent frame has rank {got} at "
                                        "node 0, expected 2"):
        sm.tangent_frame(flat, (1.0, 0.5))


# -- gates that let no NaN through --------------------------------------------

def test_pfaffian_rejects_a_nan_entry():
    a = np.zeros((4, 4))
    a[0, 1], a[2, 3], a[1, 3] = 1.0, 2.0, NAN
    with pytest.raises(AsymmetryError):
        pfaffian(a - a.T)


@pytest.mark.parametrize("which", ["s", "r"])
def test_zero_mode_frames_reject_a_nan_frame(quotient_frame_data, which):
    pf = quotient_frame_data
    if which == "r":
        pf = replace(pf, s=0, r=1, dsigma=np.zeros((1, pf.n)))
    lz._check_zero_mode_frames(pf)
    frame = pf.plus_frame.copy()
    frame[0, 0] = NAN
    with pytest.raises(FrameMismatchError):
        lz._check_zero_mode_frames(replace(pf, plus_frame=frame))


def test_require_tangent_rejects_a_nan_vector():
    scn = sphere_in_flat({}).section
    p = scn.embed((1.0, 0.5))
    with pytest.raises(TangencyError):
        sm._require_tangent(scn.sd.gradients(p),
                            [np.array([0.0, NAN, 0.0])])


# -- GrassmannElement.max_abs propagates a NaN --------------------------------

@pytest.mark.parametrize("where", [0, 1, 2])
def test_max_abs_is_nan_wherever_the_nan_word_is(where):
    coeffs = [1.0, -3.0, 2.0]
    coeffs[where] = NAN
    e = G(4, dict(zip([0b0011, 0b0101, 0b1001], coeffs)))
    assert np.isnan(e.max_abs())
    assert np.isnan(e.max_abs_degree(2))
    assert e.max_abs_degree(1) == 0.0


def test_max_abs_without_a_nan():
    e = G(4, {0b0001: 1.0, 0b0011: -3.0, 0b0111: 2.0})
    assert e.max_abs() == 3.0
    assert e.max_abs_degree(3) == 2.0
    assert G(4).max_abs() == 0.0
