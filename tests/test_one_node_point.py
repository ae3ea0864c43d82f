"""A plain point is a one-node batch.

``dual.nodes`` reads a point with no ``Batch`` coordinate as one node, so
every array the library returns there carries a leading node axis of 1.
Each routine below is evaluated at a plain point and at the same point
with every coordinate a one-node ``Batch``; the two must agree in shape
and bit for bit.  A math function called outside its domain raises an
``EvaluationError`` that names the node.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.dual import Batch
from ggred.errors import EvaluationError, MathDomainError
from ggred.genmetric import Geometry, bismut_curvature


def one_node(point):
    return [Batch([x]) for x in point]


def assert_same(got, want):
    """Equal shapes and equal bits, entry by entry."""
    got, want = (np.asarray(a, dtype=float) for a in (got, want))
    assert got.shape == want.shape
    assert [x.hex() for x in got.ravel().tolist()] == \
        [x.hex() for x in want.ravel().tolist()]


def plain_point(chart, seed):
    return [float(x) for x in chart.sample(np.random.default_rng(seed), 1)[0]]


@pytest.mark.parametrize("order", [1, 2])
def test_a_jet_at_a_point_is_a_one_node_jet(order):
    s = sc.s3xt2({})
    p = plain_point(s.chart, 1)
    for field in (s.ctx.g, s.ctx.H, s.ea.V[0]):
        got = ch.differentiate(field, p, order=order)
        want = ch.differentiate(field, one_node(p), order=order)
        assert got.value.shape[0] == 1
        assert (got.d2 is None) == (want.d2 is None) == (order == 1)
        for name in ("value", "d1", "d2")[:order + 1]:
            assert_same(getattr(got, name), getattr(want, name))


def test_a_geometry_at_a_point_is_a_one_node_geometry():
    s = sc.build("hopf_flux", {})
    p = plain_point(s.chart, 2)
    got, want = Geometry(s.ctx, p), Geometry(s.ctx, one_node(p))
    for name in ("g", "ginv", "H", "gamma", "R"):
        assert_same(getattr(got, name), getattr(want, name))
    for sign in (+1, -1):
        assert_same(bismut_curvature(sign, got), bismut_curvature(sign, want))


def test_a_lifted_point_and_its_frame_at_a_point_are_one_node():
    scn = sc.s3xt2({}).quotient
    q = plain_point(scn.quotient, 3)
    got, want = qt.LiftedPoint(scn, q), qt.LiftedPoint(scn, one_node(q))
    for name in ("basis", "plus", "minus"):
        assert_same(getattr(got, name), getattr(want, name))
    for name in ("G", "K", "T", "Kinv", "Tinv"):
        assert_same(getattr(got.rm, name), getattr(want.rm, name))
    assert_same(got.jet.d1, want.jet.d1)
    a, b = (lz.point_frame_quotient(lp) for lp in (got, want))
    assert a.g.shape[0] == 1
    assert_same(*(dual.tighten(list(pf.point), 1) for pf in (a, b)))
    for name in ("g", "ginv", "H", "gamma", "r_minus", "V", "xi", "dxi_cov",
                 "dv_cov_low", "G_ab", "K_ab", "T_ab", "plus_frame",
                 "minus_frame"):
        assert_same(getattr(a, name), getattr(b, name))


def test_a_locus_point_at_a_point_is_one_node():
    scn = sc.build("sphere_in_flat", {"c": 0.5}).section
    u = plain_point(scn.nchart, 4)
    got, want = sm.LocusPoint(scn, u), sm.LocusPoint(scn, one_node(u))
    for name in ("basis", "grads", "tlow"):
        assert_same(getattr(got, name), getattr(want, name))
    assert_same(got.jet.d2, want.jet.d2)


def test_orthonormal_frame_and_solve_linear_at_a_point_are_one_node():
    s = sc.s3xt2({})
    p = plain_point(s.chart, 5)
    gp, gb = (s.ctx.metric_at(x) for x in (p, one_node(p)))
    n = gp.shape[-1]
    assert_same(ch.orthonormal_frame(np.eye(n), gp, n, "frame"),
                ch.orthonormal_frame(np.eye(n), gb, n, "frame"))
    rhs = np.arange(2.0 * n).reshape(n, 2)
    got, want = (ch.solve_linear(np.asarray(s.ctx.g(x), dtype=object), rhs)
                 for x in (p, one_node(p)))
    assert got.shape == want.shape == (n, 2)
    assert_same(dual.tighten(got, 1), dual.tighten(want, 1))


# -- math domain errors name their node ---------------------------------------

BOX = ch.Chart("box", (-2.0, -2.0), (2.0, 2.0))


@pytest.mark.parametrize("fn, bad", [
    (lambda c: [dual.sqrt(c[0])], (-0.5, 0.3)),
    (lambda c: [c[0] ** 0.5], (-0.5, 0.3)),
    (lambda c: [dual.log(c[0] * c[1])], (0.0, 1.0))])
def test_a_domain_error_at_one_node_of_a_batch_names_that_node(fn, bad):
    field = ch.ChartField(BOX, ch.SCALAR, fn)
    batch = [Batch([0.5, x]) for x in bad]
    for order in (1, 2):
        with pytest.raises(EvaluationError,
                           match=rf"at node 1 \({bad[0]}, {bad[1]}\)"):
            ch.differentiate(field, batch, order=order)
    with pytest.raises(MathDomainError, match="at node 1") as err:
        field(batch)
    assert err.value.node == 1
    # a plain point is node 0
    with pytest.raises(EvaluationError,
                       match=rf"at node 0 \({bad[0]}, {bad[1]}\)"):
        ch.differentiate(field, bad, order=1)
