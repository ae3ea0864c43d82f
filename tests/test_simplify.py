"""Oracles for the routines that each exist in one copy.

Covers ``invert_matrix`` as ``solve_linear`` on the identity, the
``omega_two_form`` and ``theta`` contractions through one ``K^{-1}``, the
shared tau projector and the errors a horizontal lift lets through.  Each
is compared against a plain recomputation written out here, or against
the identity it must satisfy.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import quotient as qt
from ggred.chart import COVECTOR, VECTOR, ChartField
from ggred.dual import Dual, cos, sin
from ggred.scenarios import product_qg, s3xt2
from point_routines import frames_at, matrices_at, omega_at, projector_at


def _coeffs(x):
    """Every float coefficient of a float or nested dual."""
    if isinstance(x, Dual):
        return _coeffs(x.val) + _coeffs(x.eps)
    return [float(x)]


def _max_coeff(arr):
    return max(abs(c) for v in np.asarray(arr, dtype=object).ravel().tolist()
               for c in _coeffs(v))


# -- invert_matrix is solve_linear on the identity ----------------------------

def _matrix(rng, coords):
    """A 4x4 matrix of coordinate functions whose (0, 0) entry is small at
    every coordinate, so elimination must exchange rows."""
    c = rng.normal(size=(4, 4, 3))
    out = np.empty((4, 4), dtype=object)
    for i, j in np.ndindex(4, 4):
        out[i, j] = (c[i, j, 0] + 0.3 * c[i, j, 1] * sin(coords[0])
                     + 0.2 * c[i, j, 2] * cos(coords[0] * coords[1]))
    out[0, 0] = 1e-3 * out[0, 0]
    return out


def _float_point():
    return [0.4, 0.9]


def _dual_point():
    return [Dual(0.4, 1.0, dual.fresh_level()), 0.9]


def _nested_point():
    return [Dual(0.4, 1.0, dual.fresh_level()),
            Dual(0.9, 1.0, dual.fresh_level())]


@pytest.mark.parametrize("make", [_float_point, _dual_point, _nested_point])
@pytest.mark.parametrize("seed", [0, 1])
def test_invert_matrix_times_matrix_is_identity(make, seed):
    m = _matrix(np.random.default_rng(seed), make())
    body = np.vectorize(dual.body, otypes=[float])(m)
    col0 = np.abs(body[:, 0])
    assert col0[0] < col0.max()  # the first pivot is not on the diagonal
    inv = ch.inverse(m)
    assert inv.shape == (4, 4)
    assert _max_coeff(m @ inv - np.eye(4)) < 1e-11
    assert _max_coeff(inv @ m - np.eye(4)) < 1e-11


def test_invert_matrix_derivative_is_minus_inv_dm_inv():
    def mfn(coords):
        return _matrix(np.random.default_rng(3), coords)

    q = [0.4, 0.9]
    jm = ch.differentiate(mfn, q, order=1)
    jinv = ch.differentiate(lambda x: ch.inverse(mfn(x)), q, order=1)
    # a point is a one-node batch: node 0 of each jet
    mval, md1, ival, id1 = (a[0] for a in (jm.value, jm.d1, jinv.value,
                                                jinv.d1))
    minv = np.linalg.inv(mval)
    assert ival.shape == minv.shape
    assert np.max(np.abs(ival - minv)) < 1e-11
    for a in range(len(q)):
        expected = -minv @ md1[a] @ minv
        assert np.max(np.abs(expected)) > 1e-3
        assert id1[a].shape == expected.shape
        assert np.max(np.abs(id1[a] - expected)) < 1e-10


# -- one K^{-1}: omega_two_form and theta against explicit b-loops -----------

def _two_generator_action():
    """s3xt2's ambient data with a second generator and 1-form, chosen so
    that K_ab = g(V_a, V_b) - xi_a(V_b) is far from symmetric.  Only the
    algebra is exercised; the action need not be valid."""
    s = s3xt2({}).quotient
    box = s.ctx.chart
    v2 = ChartField(box, VECTOR,
                    lambda c: [0.0, 0.2 * sin(c[1]), 0.0, 1.0, 0.3],
                    name="w")
    x2 = ChartField(box, COVECTOR,
                    lambda c: [0.6 * cos(c[0]), 0.0, 0.4, 0.0, 0.0],
                    name="eta")
    ea = qt.ExtendedAction((s.ea.V[0], v2), (s.ea.xi[0], x2))
    return qt.QuotientScenario(s.ctx, ea, s.quotient, s.project, s.lift)


def _loop_omega(scn, point):
    """Omega^a_ij = sum_b K^{ba} d(g(V_b^+))_ij, entry by entry."""
    ea, ctx = scn.ea, scn.ctx
    s, n = ea.s, scn.ambient_dim
    gmat = np.asarray(ctx.g(point), dtype=object)
    v = [np.asarray(f(point), dtype=object) for f in ea.V]
    x = [np.asarray(f(point), dtype=object) for f in ea.xi]
    kmat = np.empty((s, s), dtype=object)
    for a in range(s):
        for b in range(s):
            kmat[a, b] = (v[a] @ gmat @ v[b]) - (x[a] @ v[b])
    kinv = ch.inverse(kmat)
    dxi = []
    for b in range(s):
        # dual.gradient, not a jet: this body also runs inside a jet
        d1 = dual.gradient(qt.xi_pm_field(ea, ctx, b, +1), list(point))
        dxi.append(ch.exterior_derivative(ch.PointJet(tuple(point), None, d1),
                                          1))
    om = np.empty((s, n, n), dtype=object)
    for a in range(s):
        for i in range(n):
            for j in range(n):
                acc = 0.0
                for b in range(s):
                    acc = acc + kinv[b, a] * dxi[b][i, j]
                om[a, i, j] = acc
    return om


@pytest.mark.parametrize("scn", [s3xt2({}).quotient, _two_generator_action()],
                         ids=["s3xt2", "nonsymmetric_k"])
def test_omega_two_form_matches_loop_oracle(scn):
    p = scn.lift(scn.quotient.sample(np.random.default_rng(8), 1)[0])
    oracle = dual.tighten(_loop_omega(scn, p))
    assert np.max(np.abs(oracle)) > 0.05
    # one-node Batch entries at a point, as in a field body
    om = dual.tighten(qt.omega_two_form(scn, p), 1)[0]
    assert om.shape == oracle.shape
    assert np.max(np.abs(om - oracle)) < 1e-12

    jet = ch.differentiate(lambda c: qt.omega_two_form(scn, c), p, order=1)
    ojet = ch.differentiate(lambda c: _loop_omega(scn, c), p, order=1)
    assert np.max(np.abs(ojet.d1)) > 1e-3
    assert jet.value.shape == ojet.value.shape
    assert np.max(np.abs(jet.value - ojet.value)) < 1e-12
    assert jet.d1.shape == ojet.d1.shape
    assert np.max(np.abs(jet.d1 - ojet.d1)) < 1e-10


@pytest.mark.parametrize("sign", [+1, -1])
def test_theta_route_agrees_with_xi_route_for_nonsymmetric_k(sign):
    # On tau_sign, d(K^{-1} rows) = K^{-1} d(rows) for any action, so the
    # numpy K^{-1} of the xi route and the dual K^{-1} of the theta route
    # agree only if both weight the rows with the same index order.
    scn = _two_generator_action()
    p = scn.lift(scn.quotient.sample(np.random.default_rng(9), 1)[0])
    k = matrices_at(scn.ea, scn.ctx, p).K
    assert abs(k[:, 0, 1] - k[:, 1, 0]) > 0.1
    frames = dict(zip((+1, -1), frames_at(scn.ea, scn.ctx, p)))
    from_xi, from_theta = omega_at(scn.ea, scn.ctx, sign, p,
                                             frames[sign])
    assert np.max(np.abs(from_xi)) > 0.05
    assert np.max(np.abs(from_xi - from_theta)) < 1e-9


# -- one tau projector --------------------------------------------------------

@pytest.mark.parametrize("make", [s3xt2, product_qg])
@pytest.mark.parametrize("sign", [+1, -1])
def test_tau_projector(make, sign):
    scn = make({}).quotient
    ea, ctx = scn.ea, scn.ctx
    p = scn.lift(scn.quotient.sample(np.random.default_rng(5), 1)[0])
    proj = projector_at(ea, ctx, p, sign)[0]    # one node
    n = scn.ambient_dim
    assert proj.shape == (n, n)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12
    for v in qt.v_pm_values(ea, ctx, p, sign):
        assert np.max(np.abs(proj @ np.asarray(v, dtype=float))) < 1e-12
    frame = frames_at(ea, ctx, p)[0 if sign > 0 else 1][0]
    assert frame.shape == (n - ea.s, n)
    for e in frame:
        assert np.max(np.abs(proj @ e - e)) < 1e-12


# -- a horizontal lift reports only degeneracy as LiftError -------------------

def test_lift_of_bad_input_is_not_a_lift_error():
    scn = s3xt2({}).quotient
    p = scn.lift(scn.quotient.sample(np.random.default_rng(2), 1)[0])
    w = [1.0, None, 0.0, 0.0]
    with pytest.raises(TypeError):
        qt.horizontal_lift(scn, p, +1, [w])

