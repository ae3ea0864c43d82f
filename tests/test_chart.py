"""Chart-calculus tests: exact derivatives, curvature, exterior calculus."""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import dual
from ggred.chart import (Chart, ChartField, METRIC, SCALAR, VECTOR,
                         differentiate, exterior_derivative, form_valence,
                         interior, wedge)
from ggred.dual import cos, sin
from ggred.errors import (DegreeError, DomainError, EvaluationError,
                          SingularMetricError)
from point_routines import bracket_at, christoffel_of, riemann_of

RNG = np.random.default_rng(42)

LINE = Chart("line", (-4.0,), (4.0,))
PLANE = Chart("plane", (-3.0, -3.0), (3.0, 3.0))
POLAR = Chart("polar", (0.5, -3.0), (4.0, 3.0))
SPHERE = Chart("sphere", (0.1, -3.0), (np.pi - 0.1, 3.0))


def test_polynomial_derivative():
    jet = differentiate(lambda c: [c[0] ** 2], (3.0,), order=1)
    assert np.isclose(jet.d1[0][0], 6.0)


def test_constant_field_zero_derivatives():
    f = ChartField(PLANE, SCALAR, lambda c: [2.5])
    jet = differentiate(f, (0.3, -1.0), order=2)
    assert np.all(jet.d1 == 0.0)
    assert np.all(jet.d2 == 0.0)


def test_analytic_derivative_sin():
    jet = differentiate(lambda c: [sin(c[0])], (0.0,), order=2)
    assert np.isclose(jet.d1[0][0], 1.0)
    assert np.isclose(jet.d2[0][0][0], 0.0)


def test_mixed_partials_symmetric():
    f = ChartField(PLANE, SCALAR,
                   lambda c: [sin(c[0] * c[1]) + c[0] ** 3 * c[1]])
    for p in PLANE.sample(RNG, 5):
        jet = differentiate(f, p, order=2)
        assert abs(jet.d2[:, 0, 1, 0] - jet.d2[:, 1, 0, 0]) < ch.EPS_ID


def test_duals_match_central_differences():
    # smooth scenario-style field; central differences with step 1e-4
    f = ChartField(PLANE, VECTOR,
                   lambda c: [sin(c[0]) * cos(c[1]), c[0] * c[1] ** 2])
    h = 1e-4
    for p in PLANE.sample(RNG, 5):
        jet = differentiate(f, p, order=1)
        for a in range(2):
            up = list(p)
            dn = list(p)
            up[a] += h
            dn[a] -= h
            fd = (np.asarray(f(up), float) - np.asarray(f(dn), float)) \
                / (2 * h)
            scale = max(1.0, np.max(np.abs(fd)))
            d1 = jet.d1[0, a]      # a point is a one-node batch
            assert d1.shape == fd.shape
            assert np.max(np.abs(d1 - fd)) / scale < 1e-6


def test_domain_error():
    f = ChartField(LINE, SCALAR, lambda c: [c[0]])
    with pytest.raises(DomainError):
        differentiate(f, (5.0,), order=1)


def test_domain_error_names_the_first_node_outside():
    nodes = PLANE.sample(np.random.default_rng(5), 6)
    PLANE.require_inside([dual.Batch(x) for x in nodes.T])
    nodes[4, 1] = PLANE.upper[1] + 0.1
    nodes[2, 0] = np.nan
    with pytest.raises(DomainError, match=r"node 2 \(nan, "):
        PLANE.require_inside([dual.Batch(x) for x in nodes.T])
    nodes[2] = PLANE.lower       # a bound itself is outside
    with pytest.raises(DomainError, match="node 2 "):
        PLANE.require_inside([dual.Batch(x) for x in nodes.T])
    nodes[2] = nodes[0]
    with pytest.raises(DomainError, match="node 4 "):
        PLANE.require_inside([dual.Batch(x) for x in nodes.T])
    with pytest.raises(DomainError, match="node 0 "):
        PLANE.require_inside((0.1,))            # too few coordinates


def test_evaluation_error_on_nonfinite():
    f = ChartField(LINE, SCALAR, lambda c: [c[0] / 0.0 if c[0] > 0 else 0.0])
    with pytest.raises((EvaluationError, ZeroDivisionError)):
        differentiate(f, (1.0,), order=1)


# -- Christoffel symbols -------------------------------------------------

def test_christoffel_flat_zero():
    g = ChartField(PLANE, METRIC, lambda c: np.eye(2))
    assert np.max(np.abs(christoffel_of(differentiate(g, (0.5, 0.5))))) \
        == 0.0


def _fd_christoffel(gfn, p, h=1e-5):
    p = np.asarray(p, float)
    n = p.size
    dg = np.zeros((n, n, n))
    for a in range(n):
        up, dn = p.copy(), p.copy()
        up[a] += h
        dn[a] -= h
        dg[a] = (np.asarray(gfn(up), float) - np.asarray(gfn(dn), float)) \
            / (2 * h)
    ginv = np.linalg.inv(np.asarray(gfn(p), float))
    t = np.einsum("jlk->ljk", dg) + np.einsum("klj->ljk", dg) \
        - np.einsum("ljk->ljk", dg)
    return 0.5 * np.einsum("il,ljk->ijk", ginv, t)


def test_christoffel_polar_against_fd_oracle():
    gfn = lambda c: [[1.0, 0.0], [0.0, c[0] ** 2]]
    g = ChartField(POLAR, METRIC, gfn)
    p = (2.0, 0.0)
    gam = christoffel_of(differentiate(g, p))[0]
    oracle = _fd_christoffel(gfn, p)
    assert gam.shape == oracle.shape
    assert np.max(np.abs(gam - oracle)) < 1e-6
    # frozen values produced by the oracle
    assert np.isclose(gam[0, 1, 1], -2.0)
    assert np.isclose(gam[1, 0, 1], 0.5)


def test_christoffel_symmetric_lower_indices():
    g = ChartField(SPHERE, METRIC,
                   lambda c: [[1.0, 0.1 * sin(c[0])],
                              [0.1 * sin(c[0]), sin(c[0]) ** 2 + 1.0]])
    for p in SPHERE.sample(RNG, 3):
        gam = christoffel_of(differentiate(g, p))[0]
        assert np.max(np.abs(gam - np.einsum("ijk->ikj", gam))) < ch.EPS_ID


def test_singular_metric_error():
    g = ChartField(PLANE, METRIC, lambda c: [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularMetricError):
        christoffel_of(differentiate(g, (0.0, 0.0)))


# -- Riemann curvature ---------------------------------------------------

def test_riemann_flat_zero():
    g = ChartField(PLANE, METRIC, lambda c: np.eye(2))
    r = riemann_of(differentiate(g, (1.0, -1.0), order=2))
    assert np.max(np.abs(r)) == 0.0


def test_riemann_unit_sphere_value():
    g = ChartField(SPHERE, METRIC,
                   lambda c: [[1.0, 0.0], [0.0, sin(c[0]) ** 2]])
    r = riemann_of(differentiate(g, (np.pi / 3, 0.0), order=2))
    # constant-curvature oracle: R[theta phi theta phi] = sin(theta)^2
    assert np.isclose(r[:, 0, 1, 0, 1], 0.75, atol=1e-12)


def test_riemann_symmetries_and_bianchi():
    g = ChartField(SPHERE, METRIC,
                   lambda c: [[1.0 + 0.2 * cos(c[1]), 0.1 * sin(c[0])],
                              [0.1 * sin(c[0]), sin(c[0]) ** 2 + 0.5]])
    for p in SPHERE.sample(RNG, 4):
        r = riemann_of(differentiate(g, p, order=2))[0]
        assert np.max(np.abs(r + np.einsum("ijkl->jikl", r))) < ch.EPS_ID
        assert np.max(np.abs(r + np.einsum("ijkl->ijlk", r))) < ch.EPS_ID
        assert np.max(np.abs(r - np.einsum("ijkl->klij", r))) < ch.EPS_ID
        worst = 0.0
        for i, j, k, l in np.ndindex(*r.shape):
            worst = max(worst,
                        abs(r[i, j, k, l] + r[j, k, i, l] + r[k, i, j, l]))
        assert worst < ch.EPS_ID


def test_metric_compatibility_of_christoffel():
    g = ChartField(SPHERE, METRIC,
                   lambda c: [[1.0, 0.1 * sin(c[0])],
                              [0.1 * sin(c[0]), sin(c[0]) ** 2 + 1.0]])
    for p in SPHERE.sample(RNG, 3):
        jet = differentiate(g, p, order=1)
        d1, value, gam = (a[0] for a in (jet.d1, jet.value,
                                              christoffel_of(jet)))
        nabla_g = (d1
                   - np.einsum("mai,mj->aij", gam, value)
                   - np.einsum("maj,im->aij", gam, value))
        assert np.max(np.abs(nabla_g)) < ch.EPS_ID


# -- exterior calculus ---------------------------------------------------

def test_dd_scalar_is_zero():
    f = ChartField(PLANE, SCALAR, lambda c: [sin(c[0]) * c[1] ** 2])

    def df(coords):
        jet = differentiate(f, list(coords), order=1, chart=PLANE)
        return jet.d1[:, 0]
    one_form = ChartField(PLANE, ch.COVECTOR, df)
    for p in PLANE.sample(RNG, 4):
        ddf = exterior_derivative(differentiate(one_form, p), 1)
        assert np.max(np.abs(ddf)) < ch.EPS_ID


def test_exterior_derivative_x_dy():
    omega = ChartField(PLANE, ch.COVECTOR, lambda c: [0.0, c[0]])
    dw = exterior_derivative(differentiate(omega, (0.7, -0.2)), 1)
    assert np.isclose(dw[:, 0, 1], 1.0)
    assert np.isclose(dw[:, 1, 0], -1.0)


def test_interior_product_sign():
    # i_{d/dy} (dx ^ dy) = -dx
    dxdy = np.zeros((2, 2))
    dxdy[0, 1] = 1.0
    dxdy[1, 0] = -1.0
    val = interior(np.array([[0.0, 1.0]]), dxdy[None], 2)
    assert np.allclose(val[0], [-1.0, 0.0])


def test_wedge_product_basic():
    w = wedge(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1, 1)
    assert np.isclose(w[0, 1], 1.0)
    assert np.isclose(w[1, 0], -1.0)


def test_wedge_degree_error():
    two = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(DegreeError):
        wedge(two, two, 2, 2)


def test_interior_degree_error():
    with pytest.raises(DegreeError):
        interior(np.array([[1.0], [0.0]]), np.array([1.0]), 0)


# -- Lie brackets --------------------------------------------------------

def test_coordinate_fields_commute():
    ex = ChartField(PLANE, VECTOR, lambda c: [1.0, 0.0])
    ey = ChartField(PLANE, VECTOR, lambda c: [0.0, 1.0])
    assert np.max(np.abs(bracket_at(ex, ey, (0.2, 0.4)))) == 0.0


def test_bracket_x_dy_with_dx():
    xdy = ChartField(PLANE, VECTOR, lambda c: [0.0, c[0]])
    ex = ChartField(PLANE, VECTOR, lambda c: [1.0, 0.0])
    br = bracket_at(xdy, ex, (0.3, 0.1))
    assert br.shape == (1, 2)
    assert np.allclose(br[0], [0.0, -1.0])


def _random_poly_field(chart, rng):
    n = chart.dim
    c0 = rng.normal(size=n) * 0.5
    c1 = rng.normal(size=(n, n)) * 0.3
    c2 = rng.normal(size=(n, n, n)) * 0.1

    def fn(c):
        return [c0[i]
                + sum(c1[i, j] * c[j] for j in range(n))
                + sum(c2[i, j, k] * c[j] * c[k]
                      for j in range(n) for k in range(n))
                for i in range(n)]
    return ChartField(chart, VECTOR, fn)


def test_jacobi_identity_on_random_fields():
    rng = np.random.default_rng(7)
    for _ in range(3):
        x = _random_poly_field(PLANE, rng)
        y = _random_poly_field(PLANE, rng)
        z = _random_poly_field(PLANE, rng)
        p = PLANE.sample(rng, 1)[0]

        def bracket_field(a, b):
            # the pass differentiate makes, without its node axis: this
            # body also runs at the float point of a jet
            def fn(c):
                va, vb = (np.asarray(f(list(c)), dtype=object) for f in (a, b))
                da, db = (dual.gradient(f, list(c)) for f in (a, b))
                return (np.einsum("j,ji->i", va, db)
                        - np.einsum("j,ji->i", vb, da))
            return ChartField(PLANE, VECTOR, fn)

        total = (bracket_at(x, bracket_field(y, z), p)
                 + bracket_at(y, bracket_field(z, x), p)
                 + bracket_at(z, bracket_field(x, y), p))
        assert np.max(np.abs(total)) < ch.EPS_ID


def test_sampling_stays_inside():
    rng = np.random.default_rng(0)
    pts = POLAR.sample(rng, 200)
    POLAR.require_inside([dual.Batch(x) for x in pts.T])
    assert pts.min(axis=0)[0] > POLAR.lower[0]


def test_form_antisymmetry_checker():
    good = ChartField(PLANE, form_valence(2),
                      lambda c: np.array([[0.0, c[0]], [-c[0], 0.0]]))
    bad = ChartField(PLANE, form_valence(2),
                     lambda c: np.array([[0.0, 1.0], [1.0, 0.0]]))
    pts = PLANE.sample(np.random.default_rng(0), 4)
    assert ch.antisymmetry_residual(good, pts) < ch.EPS_ID
    assert ch.antisymmetry_residual(bad, pts) > 1.0
