"""The one frame contraction and the one reader of the action rows.

``chart.frame_contract`` restricts the metric and pulls back the flux
through any number of frames; ``quotient._action_rows`` reads g, V_a and
xi_a for every routine built on the action, and the reduction steps pass
stacked (k, n) arrays.  Each is compared bit for bit with the plain loop it
replaced, written out here, at float points and at points that carry a dual
coordinate.  Float frame contractions are the exception: they go through
einsum, not BLAS, so node k of a stack must keep the bits of its one-node
run, and the result lies within a rounding bound of a plain Python loop.
Different frames go into different slots, so a swapped slot shows, and one
action sits on a metric matrix that is not symmetric, so a transposed g
shows.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import genmetric as gm
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import COVECTOR, METRIC, SCALAR, VECTOR, Chart, ChartField
from ggred.dual import Batch, Dual, cos, sin
from ggred.genmetric import GeneralizedMetricContext
from ggred.scenarios import hopf, product_qg, s3xt2, sphere_in_flat
from point_routines import matrices_at


def _bits(x):
    """Exact structure of a float or nested dual, for bitwise comparison."""
    if isinstance(x, Dual):
        return (x.level, _bits(x.val), _bits(x.eps))
    return float(x).hex()


def _all_bits(arr):
    return [_bits(v) for v in np.asarray(arr, dtype=object).ravel().tolist()]


def _assert_same(new, old, float_point):
    """``new`` is the stacked ndarray of the rows ``old``, bit for bit."""
    old = np.asarray(old, dtype=object)
    assert isinstance(new, np.ndarray)
    assert new.shape == old.shape
    if float_point:
        assert new.dtype == float and new.flags.c_contiguous
        assert np.array_equal(new, old.astype(float))
    assert _all_bits(new) == _all_bits(old)


# -- frame_contract against plain loops --------------------------------------

EPS = np.finfo(float).eps
NODES = 3


def _loop_pullback(arr, *frames):
    """The staged tensordot pull-back, one frame per slot."""
    out = np.asarray(arr)
    for frame in frames:
        out = np.tensordot(out, frame, axes=(0, 1))
    return out


def _loop_stages(arr, *frames):
    """The staged pull-back as plain Python sums, each in index order (no
    BLAS and no einsum)."""
    out = np.asarray(arr, dtype=object)
    for frame in frames:
        new = np.empty(out.shape[1:] + frame.shape[:1], dtype=object)
        for *rest, a in np.ndindex(*new.shape):
            new[(*rest, a)] = sum(out[(i, *rest)] * frame[a, i]
                                  for i in range(frame.shape[1]))
        out = new
    return out.astype(float)


def _assert_within_the_loop_bound(got, arr, *frames):
    """Each stage is a length-n sum, so k stages round by at most k n eps
    times the stages taken on absolute values.  The bound is not zero:
    einsum may sum in another order than the loop."""
    bound = len(frames) * frames[0].shape[1] * EPS * _loop_stages(
        np.abs(arr), *map(np.abs, frames))
    assert np.all(np.abs(got - _loop_stages(arr, *frames)) <= bound)


def _loop_restriction(gmat, f1, f2):
    """g on pairs of frame rows, as the lifted metric was formed."""
    return np.array([[la @ gmat @ lb for lb in f2] for la in f1])


def _loop_induced(gmat, demb1, demb2):
    """g on pairs of jacobian columns, entry by entry, as the induced
    metric was formed."""
    out = np.empty((demb1.shape[1], demb2.shape[1]), dtype=object)
    for a in range(demb1.shape[1]):
        for b in range(demb2.shape[1]):
            out[a, b] = demb1[:, a] @ gmat @ demb2[:, b]
    return out


def _float_array(rng, shape):
    return rng.normal(size=shape)


def _dual_array(rng, shape):
    """Nested duals of two levels, with some plain float entries."""
    s = Dual(0.3, 1.0, dual.fresh_level())
    t = Dual(0.7, 1.0, dual.fresh_level())
    c = rng.normal(size=shape + (3,))
    out = np.empty(shape, dtype=object)
    for k, idx in enumerate(np.ndindex(*shape)):
        a, b, e = c[idx]
        out[idx] = a if k % 3 == 0 else a + b * sin(s * e) + e * t
    return out


MAKERS = [_float_array, _dual_array]
MAKER_IDS = ["float", "dual"]


def _check_pullback(make, rng, shape, rows):
    """frame_contract of a ``shape`` array on frames of ``rows`` rows; returns
    the point's array and its frames.

    Dual entries keep the bits of the staged tensordot.  Float arrays come as
    node stacks, with a frame per node and with node 0's frames shared: node k
    keeps the bits of its one-node run and of the point alone, and lies within
    the rounding bound of the plain loop.
    """
    n = shape[0]
    if make is _dual_array:
        arr, frames = make(rng, shape), [make(rng, (m, n)) for m in rows]
        got = ch.frame_contract(arr, *frames)
        assert got.shape == tuple(rows)
        assert _all_bits(got) == _all_bits(_loop_pullback(arr, *frames))
        return (arr, *frames)
    arr = make(rng, (NODES,) + shape)
    frames = [make(rng, (NODES, m, n)) for m in rows]
    got = ch.frame_contract(arr, *frames)
    shared = ch.frame_contract(arr, *(f[0] for f in frames))
    assert got.shape == shared.shape == (NODES,) + tuple(rows)
    for k in range(NODES):
        one = [f[k] for f in frames]
        assert np.array_equal(got[k], ch.frame_contract(
            arr[k:k + 1], *(f[k:k + 1] for f in frames))[0])
        assert np.array_equal(got[k], ch.frame_contract(arr[k], *one))
        assert np.array_equal(shared[k], ch.frame_contract(
            arr[k], *(f[0] for f in frames)))
        _assert_within_the_loop_bound(got[k], arr[k], *one)
    return (arr[0], *(f[0] for f in frames))


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_one_frame_is_the_pullback(make, seed):
    _check_pullback(make, np.random.default_rng(seed), (5,), (3,))


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_two_frames_are_the_metric_restrictions(make, seed):
    # object entries (duals, or floats in the dual-safe fields) keep the
    # loops' products and sums
    gmat, f1, f2 = _check_pullback(make, np.random.default_rng(seed),
                                   (5, 5), (3, 4))
    obj = [np.asarray(a, dtype=object) for a in (gmat, f1, f2)]
    got_obj = ch.frame_contract(*obj)
    assert _all_bits(got_obj) == _all_bits(_loop_restriction(*obj))
    assert _all_bits(got_obj) == \
        _all_bits(_loop_induced(obj[0], obj[1].T, obj[2].T))


@pytest.mark.parametrize("scn", [s3xt2({}).quotient, product_qg({}).quotient,
                                 hopf({"flux": 1.0}).quotient],
                         ids=["s3xt2", "product_qg", "hopf_flux"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_lifted_metric_keeps_the_comprehension_bits(scn, sign):
    # the float restriction of the built-in quotients' lifts, on which the
    # reports rest: node k of a batch keeps the bits of the point alone, and
    # lies within the rounding bound of the plain loop
    qpts = scn.quotient.sample(np.random.default_rng(12), 20)
    geo, lifts, gred = qt._lifted_metric(scn, [Batch(c) for c in qpts.T],
                                         sign)
    gmat = scn.ctx.metric_at(geo.point)
    for k, q in enumerate(qpts):
        assert np.array_equal(gred[k], qt._lifted_metric(scn, q, sign)[2][0])
        _assert_within_the_loop_bound(gred[k], gmat[k], lifts[k], lifts[k])


@pytest.mark.parametrize("make", MAKERS, ids=MAKER_IDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_three_frames_are_the_flux_pullback(make, seed):
    _check_pullback(make, np.random.default_rng(seed), (5, 5, 5), (3, 4, 2))


def test_frame_contract_mixes_float_frames_and_dual_entries():
    rng = np.random.default_rng(4)
    h = _dual_array(rng, (4, 4, 4))
    frames = [_float_array(rng, (m, 4)) for m in (2, 3, 3)]
    got = ch.frame_contract(h, *frames)
    assert got.dtype == object
    assert _all_bits(got) == _all_bits(_loop_pullback(h, *frames))


# -- the action rows: four actions, float and dual points ---------------------

def _two_generator_action():
    """s3xt2 with a second generator and 1-form, so that K_ab is far from
    symmetric, over a 3-dimensional quotient chart so that the lift system
    is square.  Only the algebra is exercised."""
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


def _asymmetric_metric_action():
    """The two-generator action over a metric matrix with g_01 != g_10,
    so that g and its transpose give different rows."""
    scn = _two_generator_action()
    g0 = scn.ctx.g

    def gfn(c):
        g = np.array(g0(c), dtype=object)
        g[0, 1] = g[0, 1] + 0.1 * sin(c[0])
        return g
    ctx = GeneralizedMetricContext(
        ChartField(g0.chart, METRIC, gfn, name="asymmetric"), scn.ctx.H)
    return qt.QuotientScenario(ctx, scn.ea, scn.quotient, scn.project,
                               scn.lift)


QUOTIENTS = [s3xt2({}).quotient, product_qg({}).quotient,
             _two_generator_action(), _asymmetric_metric_action()]
QUOTIENT_IDS = ["s3xt2", "product_qg", "two_generators", "asymmetric_g"]


def _point(scn, with_dual):
    p = list(scn.lift(scn.quotient.sample(np.random.default_rng(6), 1)[0]))
    if with_dual:
        p[0] = Dual(p[0], 1.0, dual.fresh_level())
    return p


def _old_constraint_rows(ea, ctx, point, sign):
    gmat = np.asarray(ctx.g(point), dtype=object)
    rows = []
    for vf, xf in zip(ea.V, ea.xi):
        v = np.asarray(vf(point), dtype=object)
        x = np.asarray(xf(point), dtype=object)
        rows.append(gmat @ v + sign * x)
    return rows


def _old_v_pm_values(ea, ctx, point, sign):
    gmat = np.asarray(ctx.g(point), dtype=object)
    ginv = ch.inverse(gmat)
    out = []
    for vf, xf in zip(ea.V, ea.xi):
        v = np.asarray(vf(point), dtype=object)
        x = np.asarray(xf(point), dtype=object)
        out.append(v + sign * (ginv @ x))
    return out


def _old_horizontal_lift(scn, point, sign, qvecs):
    rows = _old_constraint_rows(scn.ea, scn.ctx, point, sign)
    n, s = scn.ambient_dim, scn.ea.s
    mat = np.empty((n, n), dtype=object)
    for a in range(s):
        mat[a, :] = rows[a]
    mat[s:, :] = qt.project_jacobian(scn, point)
    rhs = np.empty((n, len(qvecs)), dtype=object)
    rhs[:s] = 0.0
    rhs[s:] = np.asarray(qvecs, dtype=object).T
    return [dual.tighten(x) for x in ch.solve_linear(mat, rhs).T]


def _old_reduction_matrices(ea, ctx, point):
    gmat = ctx.metric_at(point)[0]
    ginv = ch.inverse(gmat, definite=True)
    v = np.array([np.asarray(f(point), dtype=float) for f in ea.V])
    x = np.array([np.asarray(f(point), dtype=float) for f in ea.xi])
    G = np.einsum("ai,ij,bj->ab", v, gmat, v)
    K = G - np.einsum("ai,bi->ab", x, v)
    T = G + np.einsum("ai,ij,bj->ab", x, ginv, x)
    return G, K, T, ch.gauss_jordan(K)[0], ch.gauss_jordan(T)[0]


def _old_k_inverse(ea, ctx, point):
    gmat = np.asarray(ctx.g(point), dtype=object)
    v = np.array([np.asarray(f(point), dtype=object) for f in ea.V])
    x = np.array([np.asarray(f(point), dtype=object) for f in ea.xi])
    return ch.inverse(v @ gmat @ v.T - x @ v.T)


def _old_d_constraint_rows(ea, ctx, point):
    def rows(coords):
        gmat = np.asarray(ctx.g(coords), dtype=object)
        return [[gmat @ np.asarray(f(coords), dtype=object) for f in ea.V],
                [np.asarray(f(coords), dtype=object) for f in ea.xi]]

    d1 = ch.differentiate(rows, point, order=1, chart=ctx.chart).d1
    if d1.dtype != object:      # a float point is a one-node batch
        d1 = d1[0]
    out = []
    for sign in (+1, -1):
        d = d1[:, 0] + sign * d1[:, 1]
        out.append(d.transpose(1, 0, 2) - d.transpose(1, 2, 0))
    return tuple(out)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("with_dual", [False, True], ids=["float", "dual"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_rows_are_stacked_per_generator_rows(scn, with_dual, sign):
    ea, ctx = scn.ea, scn.ctx
    p = _point(scn, with_dual)
    rows = qt.constraint_rows(ea, ctx, p, sign)
    assert rows.shape == (ea.s, scn.ambient_dim)
    _assert_same(dual.tighten(rows), _old_constraint_rows(ea, ctx, p, sign),
                 not with_dual)
    _assert_same(dual.tighten(qt.v_pm_values(ea, ctx, p, sign)),
                 _old_v_pm_values(ea, ctx, p, sign), not with_dual)
    for a in range(ea.s):
        assert _all_bits(qt.xi_pm_field(ea, ctx, a, sign)(p)) == \
            _all_bits(rows[a])


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("with_dual", [False, True], ids=["float", "dual"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_lift_is_one_row_per_vector(scn, with_dual, sign):
    p = _point(scn, with_dual)
    m = scn.reduced_dim
    qvecs = list(np.random.default_rng(3).normal(size=(2, m))) + \
        list(np.eye(m))
    lifts = qt.horizontal_lift(scn, p, sign, qvecs)
    assert lifts.shape == (m + 2, scn.ambient_dim)
    _assert_same(lifts, _old_horizontal_lift(scn, p, sign, qvecs),
                 not with_dual)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_reduction_matrices_equal_the_row_loop(scn):
    p = _point(scn, False)
    rm = matrices_at(scn.ea, scn.ctx, p)
    got = (rm.G, rm.K, rm.T, rm.Kinv, rm.Tinv)
    for new, old in zip(got, _old_reduction_matrices(scn.ea, scn.ctx, p)):
        assert new.dtype == float
        assert np.array_equal(new[0], old)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("with_dual", [False, True], ids=["float", "dual"])
def test_k_inverse_and_row_derivatives_equal_the_row_loops(scn, with_dual):
    ea, ctx = scn.ea, scn.ctx
    p = _point(scn, with_dual)
    assert _all_bits(qt._k_inverse(ea, ctx, p)) == \
        _all_bits(_old_k_inverse(ea, ctx, p))
    for new, old in zip(qt.d_constraint_rows(qt.action_jet(ea, ctx, p)),
                        _old_d_constraint_rows(ea, ctx, p)):
        new = new if with_dual else new[0]
        assert new.shape == (ea.s,) + (scn.ambient_dim,) * 2
        assert _all_bits(new) == _all_bits(old)


# -- SectionData.gradients ----------------------------------------------------

def _two_constraint_section():
    box = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))
    return sm.SectionData((
        ChartField(box, SCALAR,
                   lambda c: [c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - 1.0]),
        ChartField(box, SCALAR, lambda c: [c[0] * sin(c[2])])))


@pytest.mark.parametrize("sd", [sphere_in_flat({}).section.sd,
                                _two_constraint_section()],
                         ids=["sphere_in_flat", "two_constraints"])
@pytest.mark.parametrize("with_dual", [False, True], ids=["float", "dual"])
def test_gradients_are_the_stacked_rows(sd, with_dual):
    p = [0.3, -0.5, 0.7]
    if with_dual:
        p[2] = Dual(p[2], 1.0, dual.fresh_level())
    grads, d1 = sd.gradients(p), sd.jet(p).d1
    if not with_dual:       # a float point is a one-node batch
        grads, d1 = grads[0], d1[0]
    old = list(np.asarray(d1, dtype=object).T)
    assert grads.shape == (sd.r, 3)
    _assert_same(grads, old, not with_dual)


# -- the sign of a torsion connection -----------------------------------------

@pytest.mark.parametrize("sign", ["+", "plus", "-", "minus", 0, 2])
def test_sign_other_than_plus_or_minus_one_is_rejected(sign):
    with pytest.raises(ValueError):
        gm._sgn(sign)


def test_sign_plus_or_minus_one_is_kept():
    assert [gm._sgn(s) for s in (1, -1, 1.0, -1.0)] == [1.0, -1.0, 1.0, -1.0]
