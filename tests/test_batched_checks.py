"""``pair_symmetry`` and ``bismut_courant`` on batches of sample points.

Both checks evaluate at most ``dual.BATCH`` sample points as one
``dual.Batch`` point.  ``pair_symmetry`` only calls ``bismut_curvature``,
whose batch form keeps every node's bits, so its report must equal the
point-by-point loop it replaced exactly.  ``bismut_courant`` also runs the
Courant route (``lie_derivative``, ``courant_bracket``, ``split_pm``,
``bismut_via_courant``) with a leading node axis.  Those routines, the
connection coefficients, ``bismut_derivative``, ``lie_bracket`` and
``split_pm`` on a given bracket all agree with per-point calls bit for bit.
"""

import json

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import cli
from ggred import dual
from ggred import genmetric as gm
from ggred import scenarios as sc
from ggred.dual import Batch
from ggred.errors import (ConfigError, DomainError, EvaluationError,
                          SingularMetricError)
from point_routines import bracket_at

NODES = 64
NAMES = sorted(sc.BUILTIN) + ["s3xt2"]


def build(name):
    return sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes).T]


def field_pair(chart, rng):
    """One batch field of NODES random fields, and the per-node fields."""
    draws = [ck.random_field_coeffs(chart.dim, rng) for _ in range(NODES)]
    c0, c1 = (np.array(c) for c in zip(*draws))
    return (ck.vector_field(chart, c0, c1),
            [ck.vector_field(chart, d0[None], d1[None])
             for d0, d1 in draws])


# -- test-local copies of the point-by-point loops -------------------------

def check_rng(cid, seed):
    return np.random.default_rng([seed, ck.CHECK_ORDER.index(cid)])


def loop_pair_symmetry(s, seed, points=100):
    rng = check_rng("pair_symmetry", seed)
    worst = 0.0
    for p in s.chart.sample(rng, points):
        rm = gm.bismut_curvature(-1, gm.Geometry(s.ctx, p))[0]
        rp = gm.bismut_curvature(+1, gm.Geometry(s.ctx, p))[0]
        worst = max(worst, float(np.max(np.abs(rm - np.einsum("ijkl->klij",
                                                              rp)))))
        worst = max(worst, float(np.max(np.abs(rm + np.einsum("ijkl->jikl",
                                                              rm)))))
        worst = max(worst, float(np.max(np.abs(rp + np.einsum("ijkl->ijlk",
                                                              rp)))))
    return worst


def loop_bismut_courant(s, seed, points=100):
    """The loop's residual, and its (point, x, y, sign) per sample."""
    rng = check_rng("bismut_courant", seed)
    worst, samples = 0.0, []
    for p in s.chart.sample(rng, points):
        x = ck.random_vector_field(s.chart, rng)
        y = ck.random_vector_field(s.chart, rng)
        sign = 1 if rng.random() < 0.5 else -1
        d1 = gm.bismut_derivative(x, y, sign, s.ctx, p)
        d2 = gm.bismut_via_courant(x, y, sign, s.ctx, p)
        worst = max(worst, float(np.max(np.abs(d1 - d2))))
        samples.append((p, x, y, sign))
    return worst, samples


def run(s, cid, seed, points=None):
    return ck.REGISTRY[cid].fn(s, check_rng(cid, seed),
                               ck.REGISTRY[cid].tolerance, points)


def record(monkeypatch, name):
    """Wrap ``checks.<name>``; returns the list of its argument tuples."""
    calls, original = [], getattr(ck, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(ck, name, spy)
    return calls


# -- every retrofitted routine on a 64-node batch --------------------------

@pytest.mark.parametrize("name", NAMES)
def test_connection_and_bracket_routines_keep_every_nodes_bits(name):
    s = build(name)
    rng = np.random.default_rng(11)
    nodes = s.chart.sample(rng, NODES)
    p, pts = batch_of(nodes), [list(q) for q in nodes]
    bx, xs = field_pair(s.chart, rng)
    by, ys = field_pair(s.chart, rng)
    bracket = bracket_at(bx, by, p)
    for sign in (1, -1):
        coeffs = gm.bismut_connection_coeffs(sign, gm.Geometry(s.ctx, p))
        deriv = gm.bismut_derivative(bx, by, sign, s.ctx, p)
        for k, q in enumerate(pts):
            want = gm.bismut_connection_coeffs(sign, gm.Geometry(s.ctx, q))
            assert np.array_equal(coeffs[k], want[0])
            assert np.array_equal(
                deriv[k], gm.bismut_derivative(xs[k], ys[k], sign,
                                                    s.ctx, q)[0])
    for k, q in enumerate(pts):
        assert np.array_equal(bracket[k],
                              bracket_at(xs[k], ys[k], q)[0])
    # split_pm on a given bracket, node by node
    br = gm.courant_bracket(bx, gm.flat_covector(s.ctx, bx), by,
                            gm.flat_covector(s.ctx, by), s.ctx, p)
    plus, minus = gm.split_pm(br, s.ctx)
    for k, q in enumerate(pts):
        one = gm.GeneralizedVector(br.X[k:k + 1], br.xi[k:k + 1],
                                   tuple(q))
        want = gm.split_pm(one, s.ctx)
        assert np.array_equal(plus[k], want[0][0])
        assert np.array_equal(minus[k], want[1][0])


@pytest.mark.parametrize("name", NAMES)
def test_courant_route_equals_per_point_calls(name):
    s = build(name)
    rng = np.random.default_rng(12)
    nodes = s.chart.sample(rng, NODES)
    p, pts = batch_of(nodes), [list(q) for q in nodes]
    bx, xs = field_pair(s.chart, rng)
    by, ys = field_pair(s.chart, rng)
    gy = gm.flat_covector(s.ctx, by)
    lie = ch.lie_derivative(ch.differentiate(bx, p),
                            ch.differentiate(gy, p))
    lie_g = ch.lie_derivative(ch.differentiate(bx, p),
                              ch.differentiate(s.ctx.g, p))
    br = gm.courant_bracket(bx, gm.flat_covector(s.ctx, bx), by, gy, s.ctx, p)
    via = {sign: gm.bismut_via_courant(bx, by, sign, s.ctx, p)
           for sign in (1, -1)}
    for k, q in enumerate(pts):
        x, y = xs[k], ys[k]
        fy = gm.flat_covector(s.ctx, y)
        jv, jt, jg = (ch.differentiate(f, q) for f in (x, fy, s.ctx.g))
        assert np.array_equal(lie[k], ch.lie_derivative(jv, jt)[0])
        assert np.array_equal(lie_g[k], ch.lie_derivative(jv, jg)[0])
        one = gm.courant_bracket(x, gm.flat_covector(s.ctx, x), y, fy,
                                 s.ctx, q)
        assert np.array_equal(br.X[k], one.X[0])
        assert np.array_equal(br.xi[k], one.xi[0])
        for sign in (1, -1):
            assert np.array_equal(
                via[sign][k], gm.bismut_via_courant(x, y, sign, s.ctx, q)[0])


# -- the two checks against the loops they replaced ------------------------

@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", NAMES)
def test_pair_symmetry_equals_the_point_loop(monkeypatch, name, seed):
    s = build(name)
    curv = record(monkeypatch, "bismut_curvature")
    got = run(s, "pair_symmetry", seed)
    assert [dual.nodes(c[1].point) for c in curv] == [64, 64, 36, 36]
    assert got.max_residual == loop_pair_symmetry(s, seed)
    assert got.status == "pass"


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", NAMES)
def test_bismut_courant_keeps_its_status_and_the_loops_draws(
        monkeypatch, name, seed):
    s = build(name)
    calls = record(monkeypatch, "bismut_derivative")
    got = run(s, "bismut_courant", seed)
    want, samples = loop_bismut_courant(s, seed)
    assert got.status == "pass" and want <= got.tolerance
    assert abs(got.max_residual - want) <= 1e-13
    # every sample evaluated once, with the loop's x, y and sign
    seen = {}
    for x, y, sign, _, p in calls:
        assert dual.nodes(p) <= dual.BATCH
        xv, yv = (dual.tighten(np.asarray(f(p), dtype=object), dual.nodes(p))
                  for f in (x, y))
        for k, node in enumerate(dual.tighten(p, dual.nodes(p))):
            seen[tuple(node)] = (xv[k], yv[k], sign)
    assert len(seen) == len(samples) == sum(dual.nodes(c[4]) for c in calls)
    for q, x, y, sign in samples:
        xk, yk, sk = seen[tuple(q)]
        assert sk == sign
        for got, f in ((xk, x), (yk, y)):
            want = dual.tighten(np.asarray(f(list(q)), dtype=object), 1)
            assert np.array_equal(got, want[0])


def runs(count):
    """Batch sizes of ``count`` sample points."""
    return [64] * (count // 64) + [count % 64] * bool(count % 64)


def test_150_points_take_three_batches_and_the_loops_result(monkeypatch):
    s = build("hopf_flux")
    curv = record(monkeypatch, "bismut_curvature")
    got = run(s, "pair_symmetry", 42, points=150)
    assert [dual.nodes(c[1].point) for c in curv] == [64, 64, 64, 64, 22, 22]
    assert got.points == 150
    assert got.max_residual == loop_pair_symmetry(s, 42, points=150)

    deriv = record(monkeypatch, "bismut_derivative")
    got = run(s, "bismut_courant", 42, points=150)
    want, samples = loop_bismut_courant(s, 42, points=150)
    plus = sum(sign > 0 for *_, sign in samples)
    assert [dual.nodes(c[4]) for c in deriv] == runs(plus) + runs(150 - plus)
    assert got.status == "pass" and abs(got.max_residual - want) <= 1e-13


# -- fields with no batch form ---------------------------------------------

SPHERE = ch.Chart("s2", (0.05, 0.0), (np.pi - 0.05, 2 * np.pi))


def scenario_with(metric):
    ctx = gm.GeneralizedMetricContext.create(
        ch.ChartField(SPHERE, ch.METRIC, metric))
    return sc.Scenario("custom", ctx, {})


def branching_metric(c):
    s2 = dual.sin(c[0]) ** 2
    return [[1.0, 0.0], [0.0, s2 if c[0] > 1.0 else s2 * 1.0]]


@pytest.mark.parametrize("cid", ["pair_symmetry", "bismut_courant"])
def test_field_with_no_batch_form_runs_point_by_point(monkeypatch, cid):
    s = scenario_with(branching_metric)
    batch_calls = []
    original = ch.differentiate

    def spy(f, point, *args, **kw):
        batch_calls.append(isinstance(dual.body(point[0]), Batch))
        return original(f, point, *args, **kw)

    monkeypatch.setattr(ch, "differentiate", spy)
    got = run(s, cid, 42)
    # every jet is taken at a batch point; the field runs node by node
    assert batch_calls and all(batch_calls)
    loop = loop_pair_symmetry(s, 42) if cid == "pair_symmetry" else \
        loop_bismut_courant(s, 42)[0]
    assert got.max_residual == loop
    assert got.status == "pass"


@pytest.mark.parametrize("cid", ["pair_symmetry", "bismut_courant"])
def test_type_error_on_a_later_batch_runs_that_batch_node_by_node(cid):
    first = []

    def late_failure(c):
        b = dual.body(c[0])
        if isinstance(b, Batch):
            if not first:
                first.append(b.v[0])
            if b.v[0] != first[0]:
                raise TypeError("fails on a later batch")
        return [[1.0, 0.0], [0.0, 2.0 + dual.sin(c[0])]]

    s = scenario_with(late_failure)
    loop = loop_pair_symmetry(s, 42) if cid == "pair_symmetry" else \
        loop_bismut_courant(s, 42)[0]
    assert run(s, cid, 42).max_residual.hex() == loop.hex()


# -- degenerate input ------------------------------------------------------

class FixedChart(ch.Chart):
    """A chart whose samples are given nodes (one of them degenerate)."""

    def sample(self, rng, n):
        nodes = np.tile([[0.5, 0.5]], (n, 1))
        nodes[n // 2] = (0.0, 0.5)
        return nodes


BOX = FixedChart("box", (-1.0, -1.0), (1.0, 1.0))


def kinked_metric(c):
    return [[1.0 + dual.sqrt(c[0] * c[0]), 0.0], [0.0, 1.0]]


def test_non_finite_derivative_at_a_batch_node_names_the_node():
    g = ch.ChartField(BOX, ch.METRIC, kinked_metric)
    nodes = BOX.sample(None, 8)
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(EvaluationError, match=r"node 4 \(0\.0, 0\.5\)"):
            ch.differentiate(g, batch_of(nodes), order=1)
        s = sc.Scenario("custom", gm.GeneralizedMetricContext.create(g), {})
        for cid in ("pair_symmetry", "bismut_courant"):
            with pytest.raises(EvaluationError):
                run(s, cid, 42, points=8)


def test_division_by_zero_at_a_point_is_an_evaluation_error():
    g = ch.ChartField(BOX, ch.METRIC, kinked_metric)
    with pytest.raises(EvaluationError, match=r"node 0 \(0\.0, 0\.5\)"):
        ch.differentiate(g, (0.0, 0.5), order=1)
    huge = ch.ChartField(BOX, ch.SCALAR, lambda c: dual.exp(1e3 * c[0]))
    with pytest.raises(EvaluationError, match=r"node 0 \(0\.9, 0\.0\)"):
        ch.differentiate(huge, (0.9, 0.0), order=1)


def test_batch_node_outside_the_chart_raises_domain_error():
    s = build("hopf_flux")
    rng = np.random.default_rng(13)
    nodes = s.chart.sample(rng, 8)
    nodes[6, 0] = s.chart.upper[0] + 0.5
    p = batch_of(nodes)
    bx, _ = field_pair(s.chart, np.random.default_rng(1))
    with pytest.raises(DomainError, match="outside"):
        gm.courant_bracket(bx, gm.flat_covector(s.ctx, bx), bx,
                           gm.flat_covector(s.ctx, bx), s.ctx, p)
    with pytest.raises(DomainError, match="outside"):
        gm.bismut_curvature(+1, gm.Geometry(s.ctx, p))


def test_singular_metric_at_a_batch_node_raises():
    g = ch.ChartField(BOX, ch.METRIC,
                      lambda c: [[1.0, 0.0], [0.0, c[0] * c[0]]])
    s = sc.Scenario("custom", gm.GeneralizedMetricContext.create(g), {})
    p = batch_of(BOX.sample(None, NODES))
    bx, _ = field_pair(BOX, np.random.default_rng(2))
    for call in (lambda: gm.bismut_curvature(-1, gm.Geometry(s.ctx, p)),
                 lambda: gm.bismut_derivative(bx, bx, 1, s.ctx, p),
                 lambda: gm.bismut_via_courant(bx, bx, -1, s.ctx, p)):
        with pytest.raises(SingularMetricError):
            call()


# -- configuration -------------------------------------------------------

def test_negative_seed_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="-5"):
        cli.load_config({"scenario": "flat_torus", "seed": -5})
    assert cli.main(["run", "--scenario", "flat_torus", "--seed", "-1"]) == 2
    assert "-1" in capsys.readouterr().err
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "flat_torus", "seed": 3}),
                    encoding="utf-8")
    assert cli.main(["run", str(path), "--seed", "-2"]) == 2
    assert "-2" in capsys.readouterr().err


def test_empty_check_list_is_a_config_error(capsys):
    with pytest.raises(ConfigError, match="no check"):
        cli.load_config({"scenario": "flat_torus", "checks": []})
    assert cli.main(["run", "--scenario", "flat_torus", "--checks", ","]) == 2
    assert "no check" in capsys.readouterr().err
