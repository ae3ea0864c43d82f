"""Oracles for the reduction fast paths.

Covers the multi-column linear solve, one-factorization horizontal lifts,
the staged reduced and induced flux pull-backs, the metric-only quotient
frame and the scale-relative pivot test.  Each fast path is compared
against a plain recomputation written out here: bit for bit where the
arithmetic is the same, to a tight tolerance where only the summation
order differs.
"""

import itertools

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import Chart, ChartField, METRIC, SCALAR, form_valence
from ggred.dual import Dual, cos, sin
from ggred.errors import LiftError, SingularMetricError
from ggred.genmetric import GeneralizedMetricContext
from ggred.scenarios import hopf, s3xt2


def _bits(x):
    """Exact structure of a float or nested dual, for bitwise comparison."""
    if isinstance(x, Dual):
        return (x.level, _bits(x.val), _bits(x.eps))
    return float(x).hex()


def _all_bits(arr):
    return [_bits(v) for v in np.asarray(arr, dtype=object).ravel().tolist()]


# -- solve_linear with a block of right-hand sides ---------------------------

def _float_system(rng, n, k):
    return rng.normal(size=(n, n)), rng.normal(size=(n, k))


def _dual_system(rng, n, k):
    t = Dual(0.4, 1.0, dual.fresh_level())
    a = np.empty((n, n), dtype=object)
    b = np.empty((n, k), dtype=object)
    for idx, c in np.ndenumerate(rng.normal(size=(n, n, 2))[..., 0]):
        a[idx] = c + rng.normal() * sin(t * c)
    for idx, c in np.ndenumerate(rng.normal(size=(n, k))):
        b[idx] = c * cos(t) if idx[0] % 2 else c
    return a, b


def _nested_system(rng, n, k):
    s = Dual(0.3, 1.0, dual.fresh_level())
    t = Dual(0.7, 1.0, dual.fresh_level())
    a = np.empty((n, n), dtype=object)
    b = np.empty((n, k), dtype=object)
    for idx in np.ndindex(n, n):
        c0, c1, c2 = rng.normal(size=3)
        a[idx] = c0 + c1 * sin(s) * t + c2 * cos(t * s)
    for idx in np.ndindex(n, k):
        c0, c1 = rng.normal(size=2)
        b[idx] = c0 * s + c1 * t * t
    return a, b


@pytest.mark.parametrize("make", [_float_system, _dual_system,
                                  _nested_system])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_block_rhs_equals_column_solves_bitwise(make, seed):
    rng = np.random.default_rng(seed)
    a, b = make(rng, 5, 3)
    a[0, 0] = 1e-3 * a[0, 0]  # force a row exchange on the first column
    block = ch.solve_linear(a, b)
    assert block.shape == (5, 3)
    for j in range(3):
        col = ch.solve_linear(a, b[:, j])
        assert col.shape == (5,)
        assert _all_bits(block[:, j]) == _all_bits(col)


def test_block_rhs_solves_the_system():
    rng = np.random.default_rng(5)
    a, b = _float_system(rng, 4, 2)
    x = np.asarray(ch.solve_linear(a, b), dtype=float)
    assert np.max(np.abs(a @ x - b)) < 1e-12


# -- horizontal lifts: one factorization per call ----------------------------

def _lift_point(scn, q, seeded):
    p = list(scn.lift(q))
    if seeded:
        p[0] = Dual(p[0], 1.0, dual.fresh_level())
    return p


@pytest.mark.parametrize("seeded", [False, True])
@pytest.mark.parametrize("sign", [+1, -1])
def test_block_lift_equals_single_lifts_bitwise(seeded, sign):
    scn = s3xt2({}).quotient
    rng = np.random.default_rng(11)
    q = scn.quotient.sample(rng, 1)[0]
    p = _lift_point(scn, q, seeded)
    qvecs = list(rng.normal(size=(3, scn.reduced_dim))) + [
        np.eye(scn.reduced_dim)[1]]
    block = qt.horizontal_lift(scn, p, sign, qvecs)
    assert len(block) == len(qvecs)
    for w, lift in zip(qvecs, block):
        single = qt.horizontal_lift(scn, p, sign, [w])
        assert len(single) == 1
        assert _all_bits(lift) == _all_bits(single[0])


def test_lift_of_no_vectors_is_empty():
    scn = s3xt2({}).quotient
    q = scn.quotient.sample(np.random.default_rng(2), 1)[0]
    assert qt.horizontal_lift(scn, scn.lift(q), +1, []) == []


# -- the staged reduced flux against an explicit loop ------------------------

def _loop_reduced_flux(scn, coords):
    """H + Omega^a wedge xi_a on tau_+ coordinate lifts, entry by entry."""
    m, n = scn.reduced_dim, scn.ambient_dim
    p = scn.lift(coords)
    lifts = qt.horizontal_lift(scn, p, +1, np.eye(m))
    h = np.asarray(scn.ctx.H(p), dtype=object)
    om = qt.omega_two_form(scn, p)
    xi = [np.asarray(f(p), dtype=object) for f in scn.ea.xi]

    def two(a, u, v):
        acc = 0.0
        for i, j in itertools.product(range(n), repeat=2):
            acc = acc + u[i] * om[a][i, j] * v[j]
        return acc

    def one(a, u):
        acc = 0.0
        for i in range(n):
            acc = acc + xi[a][i] * u[i]
        return acc

    out = np.empty((m, m, m), dtype=object)
    for mu, nu, rho in itertools.product(range(m), repeat=3):
        x, y, z = lifts[mu], lifts[nu], lifts[rho]
        acc = 0.0
        for i, j, k in itertools.product(range(n), repeat=3):
            acc = acc + h[i, j, k] * x[i] * y[j] * z[k]
        for a in range(scn.ea.s):
            acc = acc + (two(a, x, y) * one(a, z) - two(a, x, z) * one(a, y)
                         + two(a, y, z) * one(a, x))
        out[mu, nu, rho] = acc
    return out


def test_staged_reduced_flux_matches_loop_oracle():
    scn = s3xt2({}).quotient
    q = scn.quotient.sample(np.random.default_rng(4), 1)[0]
    field = qt.reduced_flux_field(scn)
    assert field.name == "H_red"
    # Omega^a has one-node Batch entries at a point: node 0 of each
    oracle = dual.tighten(_loop_reduced_flux(scn, q), 1)[0]
    assert np.max(np.abs(oracle)) > 0.05
    staged = dual.tighten(np.asarray(field(q), dtype=object), 1)[0]
    assert staged.shape == oracle.shape
    assert np.max(np.abs(staged - oracle)) < 1e-12
    hred = qt.reduce_metric_flux(scn, q)[1][0]
    assert hred.shape == oracle.shape
    assert np.max(np.abs(hred - oracle)) < 1e-12

    jet = ch.differentiate(field, q, order=1)
    ojet = ch.differentiate(lambda c: _loop_reduced_flux(scn, c), q, order=1)
    assert np.max(np.abs(ojet.d1)) > 1e-3
    assert jet.value.shape == ojet.value.shape
    assert np.max(np.abs(jet.value - ojet.value)) < 1e-12
    assert jet.d1.shape == ojet.d1.shape
    assert np.max(np.abs(jet.d1 - ojet.d1)) < 1e-10


# -- the induced flux of a 3-dimensional locus --------------------------------

def _s3_in_flat_r4():
    """Unit S^3 in flat R^4 with a constant 3-form, hyperspherical chart."""
    box = Chart("r4", (-1.6,) * 4, (1.6,) * 4)
    hconst = np.zeros((4, 4, 4))
    for axes, val in (((0, 1, 2), 0.7), ((0, 1, 3), -0.4), ((1, 2, 3), 1.3)):
        for perm in itertools.permutations(range(3)):
            sign = np.linalg.det(np.eye(3)[list(perm)])
            hconst[tuple(axes[i] for i in perm)] = round(sign) * val
    g = ChartField(box, METRIC, lambda c: np.eye(4), name="flat")
    h = ChartField(box, form_valence(3), lambda c: hconst, name="const3")
    sig = ChartField(box, SCALAR,
                     lambda c: [sum(x * x for x in c) - 1.0], name="radius")
    nchart = Chart("s3", (0.3, 0.3, -np.pi + 0.3),
                   (np.pi - 0.3, np.pi - 0.3, np.pi - 0.3))

    def embed(u):
        psi, th, ph = u
        return [cos(psi), sin(psi) * cos(th), sin(psi) * sin(th) * cos(ph),
                sin(psi) * sin(th) * sin(ph)]

    scn = sm.SubmanifoldScenario(GeneralizedMetricContext(g, h),
                                 sm.SectionData((sig,)), nchart, embed,
                                 name="s3_in_flat")
    return scn, hconst


def test_induced_flux_matches_einsum_pullback():
    scn, hconst = _s3_in_flat_r4()
    rng = np.random.default_rng(8)
    scn.check_maps(rng, 2)
    field = sm.induced_flux_field(scn)
    assert field.name == "induced H"

    def oracle(u):
        jac = np.asarray(sm.embed_jacobian(scn, u), dtype=object)
        return np.einsum("ijk,ia,jb,kc->abc", hconst.astype(object),
                         jac, jac, jac)

    for u in scn.nchart.sample(rng, 2):
        val = dual.tighten(np.asarray(field(u), dtype=object))
        want = dual.tighten(oracle(list(u)))
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(val - want)) < 1e-12
        jet = ch.differentiate(field, u, order=1)
        ojet = ch.differentiate(oracle, u, order=1)
        assert np.max(np.abs(ojet.d1)) > 0.1
        assert np.max(np.abs(jet.d1 - ojet.d1)) < 1e-12


# -- the quotient frame from the reduced metric alone ------------------------

def test_quotient_frame_raises_on_degenerate_projection():
    s = hopf({"flux": 0.0})
    scn = qt.QuotientScenario(s.ctx, s.ea, s.quotient.quotient,
                              lambda c: [0.0 * c[0], 0.0 * c[1]],
                              s.quotient.lift)
    q = scn.quotient.sample(np.random.default_rng(42), 1)[0]
    with pytest.raises(LiftError):
        qt.quotient_frame(scn, q)


def test_quotient_frame_is_reduced_orthonormal():
    scn = s3xt2({}).quotient
    q = scn.quotient.sample(np.random.default_rng(6), 1)[0]
    basis = qt.quotient_frame(scn, q)[0]      # one node
    gred = qt.reduce_metric_flux(scn, q)[0][0]
    assert np.max(np.abs(basis @ gred @ basis.T
                         - np.eye(scn.reduced_dim))) < 1e-12


# -- a scale-relative pivot test ----------------------------------------------

@pytest.mark.parametrize("dtype", [float, object])
def test_tiny_but_regular_metric_is_inverted(dtype):
    g = (1e-15 * np.eye(2)).astype(dtype)
    inv = np.asarray(ch.inverse(g, definite=True), dtype=float)
    assert np.allclose(inv, 1e15 * np.eye(2), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [float, object])
def test_nearly_singular_metric_raises(dtype):
    g = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]).astype(dtype)
    with pytest.raises(SingularMetricError):
        ch.inverse(g, definite=True)


def test_solve_linear_pivot_is_scale_relative():
    tiny = 1e-15 * np.array([[2.0, 1.0], [1.0, 3.0]])
    x = np.asarray(ch.solve_linear(tiny, [1e-15, 2e-15]), dtype=float)
    assert np.allclose(tiny @ x, [1e-15, 2e-15], rtol=1e-12, atol=0.0)
    with pytest.raises(SingularMetricError):
        ch.solve_linear([[1.0, 1.0], [1.0, 1.0 + 1e-13]], [1.0, 0.0])
    with pytest.raises(SingularMetricError):
        ch.inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]],
                            dtype=object))
