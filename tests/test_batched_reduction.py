"""``thm63`` and ``thm65`` on batches of sample points.

Both checks evaluate at most ``dual.BATCH`` sample points as one
``dual.Batch`` point, as ``pair_symmetry`` does.  On that path
``solve_linear`` picks its pivots per node, ``orthonormal_frame`` takes
node stacks, nested jets see ``Dual`` coordinates over ``Batch`` values, and
the reduced curvatures of both routes carry a trailing node axis.  Every
node must keep the bits of its own point-by-point evaluation, so the
reports must equal the point loops they replaced, copied here, exactly.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.dual import Batch, Dual
from ggred.errors import DomainError, RankError, SingularMetricError
from reduction_cases import two_constraint_section, two_generator_action
from point_routines import christoffel_of, matrices_at

NODES = 64
NAN = float("nan")


def _bits(x):
    """Exact structure of a float, Batch node or nested dual."""
    if isinstance(x, Dual):
        return (x.level, _bits(x.val), _bits(x.eps))
    return float(x).hex()


def _node(x, k):
    """Node ``k`` of a value over Batch bodies, with its dual layers."""
    if isinstance(x, Dual):
        return Dual(_node(x.val, k), _node(x.eps, k), x.level)
    return float(x.v[k]) if isinstance(x, Batch) else x


def _node_bits(arr, k):
    return [_bits(_node(v, k)) for v in np.asarray(arr, dtype=object).ravel()]


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes).T]


# -- solve_linear: one pivot per node ------------------------------------------

def _dual_system(rng, n, k):
    """An n x n matrix and an (n, k) block of Dual(Batch) entries, one level,
    the matrix scaled per node so the nodes pick different pivots."""
    lev = dual.fresh_level()
    vals = rng.normal(size=(n, n, NODES)) * rng.uniform(0.1, 10, (n, 1, 1))
    epss = rng.normal(size=(n, n, NODES))
    m = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        m[i, j] = Dual(Batch(vals[i, j]), Batch(epss[i, j]), lev)
    rv, re = rng.normal(size=(2, n, k, NODES))
    rhs = np.empty((n, k), dtype=object)
    for i, j in np.ndindex(n, k):
        rhs[i, j] = Dual(Batch(rv[i, j]), Batch(re[i, j]), lev)
    return m, rhs


def _at_node(arr, k):
    out = np.empty(np.shape(arr), dtype=object)
    out.ravel()[:] = [_node(v, k) for v in np.asarray(arr).ravel()]
    return out


@pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
def test_solve_linear_equals_the_node_solves_bit_for_bit(k):
    m, rhs = _dual_system(np.random.default_rng(5), 4, k or 1)
    if k is None:
        rhs = rhs[:, 0]
    first = np.abs(np.array([[_node(v, j).val for j in range(NODES)]
                             for v in m[:, 0]])).argmax(0)
    assert len(set(first.tolist())) == 4     # every row is some node's pivot
    got = ch.solve_linear(m, rhs)
    assert got.shape == rhs.shape
    for j in range(NODES):
        want = ch.solve_linear(_at_node(m, j), _at_node(rhs, j))
        assert _node_bits(got, j) == [_bits(v) for v in want.ravel()]


def _tree(rng, levels):
    """A random entry: Batch leaves under each of ``levels`` (innermost
    first) that the entry carries, each level carried or not at random."""
    if not levels:
        return Batch(rng.normal(size=NODES))
    inner = _tree(rng, levels[:-1])
    return Dual(inner, _tree(rng, levels[:-1]), levels[-1]) \
        if rng.random() < 0.7 else inner


def _coeffs(x):
    """Every coefficient of a value, each as its (NODES,) floats."""
    if isinstance(x, Dual):
        return _coeffs(x.val) + _coeffs(x.eps)
    return [np.broadcast_to(x.v if isinstance(x, Batch) else x, NODES)]


def _node_max(arr):
    return np.abs([c for v in np.ravel(arr) for c in _coeffs(v)]).max(0)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2), st.integers(2, 3),
       st.integers(0, 2 ** 32 - 1))
@example(1, 2, 2, 0)    # a column with no Dual of the top level
def test_solve_linear_by_levels_solves_every_node_and_column(n, depth, k,
                                                             seed):
    """m x - rhs vanishes at every Dual level, each node keeps the bits of
    its one-node solve and each column those of its own solve."""
    rng = np.random.default_rng(seed)
    levels = [dual.fresh_level() for _ in range(depth)]
    m, rhs = (np.empty(shape, dtype=object) for shape in ((n, n), (n, k)))
    for arr in (m, rhs):
        arr.ravel()[:] = [_tree(rng, levels) for _ in range(arr.size)]
    m *= np.array([Batch(10.0 ** rng.uniform(-1, 1, NODES))
                   for _ in range(n)], dtype=object)[:, None]
    first = np.abs(dual.tighten([dual.body(v) for v in m[:, 0]], NODES))
    assert n == 1 or len(set(first.argmax(1).tolist())) > 1
    x = ch.solve_linear(m, rhs)
    scale = n * _node_max(m) * _node_max(x) + _node_max(rhs)
    assert (_node_max(m @ x - rhs) <= 1e-12 * scale).all()
    for j in range(NODES):
        want = ch.solve_linear(_at_node(m, j), _at_node(rhs, j))
        assert _node_bits(x, j) == [_bits(v) for v in want.ravel()]
    for c in range(k):
        col = ch.solve_linear(m, rhs[:, c])
        assert all(_node_bits(x[:, c], j) == _node_bits(col, j)
                   for j in range(NODES))


def test_solve_linear_eliminates_its_body_once(monkeypatch):
    """A 64-node 3 x 3 system with two nested Dual levels and two columns
    is one ``gauss_jordan`` call: every level and column reuse its one
    inverse."""
    rng = np.random.default_rng(10)
    inner, outer = dual.fresh_level(), dual.fresh_level()

    def entry():
        def leaf():
            return Dual(Batch(rng.normal(size=NODES)),
                        Batch(rng.normal(size=NODES)), inner)
        return Dual(leaf(), leaf(), outer)
    m, rhs = (np.empty(shape, dtype=object) for shape in ((3, 3), (3, 2)))
    for arr in (m, rhs):
        arr.ravel()[:] = [entry() for _ in range(arr.size)]
    calls, gauss_jordan = [], ch.gauss_jordan

    def spy(a):
        calls.append(np.shape(a))
        return gauss_jordan(a)
    monkeypatch.setattr(ch, "gauss_jordan", spy)
    x = ch.solve_linear(m, rhs)
    assert x.shape == (3, 2) and x[0, 0].level == outer
    assert calls == [(NODES, 3, 3)]


def test_solve_linear_with_batch_entries_and_a_shared_float_column():
    rng = np.random.default_rng(6)
    vals = rng.normal(size=(3, 3, NODES))
    m = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        m[i, j] = Batch(vals[i, j])
    m[:, 2] = [0.5, -2.0, 1.0]          # floats shared by every node
    rhs = np.eye(3)
    got = ch.solve_linear(m, rhs)
    for j in range(NODES):
        want = ch.solve_linear(_at_node(m, j).astype(float), rhs)
        assert np.array_equal(dual.tighten(got, NODES)[j],
                              want.astype(float))


def test_a_nan_pivot_at_one_node_raises():
    m, rhs = _dual_system(np.random.default_rng(7), 3, 1)
    for i in range(3):
        v = m[i, 0].val.v.copy()
        v[5] = NAN if i == 0 else 0.0
        m[i, 0] = Dual(Batch(v), m[i, 0].eps, m[i, 0].level)
    with pytest.raises(SingularMetricError, match="node 5"):
        ch.solve_linear(m, rhs)


def test_a_singular_node_raises():
    vals = np.random.default_rng(8).normal(size=(3, 3, NODES))
    vals[2, :, 9] = 2.0 * vals[0, :, 9]
    m = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        m[i, j] = Batch(vals[i, j])
    with pytest.raises(SingularMetricError, match="node 9"):
        ch.solve_linear(m, np.eye(3))


def test_entries_undo_tighten():
    arr = np.moveaxis(np.random.default_rng(9).normal(size=(2, 3, 5)), -1, 0)
    ent = dual.entries(arr)
    assert ent.shape == (2, 3) and isinstance(ent[1, 2], Batch)
    assert np.array_equal(dual.tighten(ent, 5), arr)


# -- orthonormal_frame on node stacks ------------------------------------------

def _metric_stack(rng, n):
    a = rng.normal(size=(NODES, n, n))
    return a @ a.transpose(0, 2, 1) + n * np.eye(n)


def _metric(g, k):
    """Node k's metric as a one-node stack in C order, as the reductions
    pass one (BLAS may round a strided matrix product differently)."""
    return np.ascontiguousarray(g[k:k + 1])


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per_node"])
def test_node_frames_equal_the_per_node_frames(n, shared):
    rng = np.random.default_rng(n)
    g = _metric_stack(rng, n)
    vecs = np.eye(n) if shared else \
        np.moveaxis(rng.normal(size=(n, n, NODES)), -1, 0)
    got = ch.orthonormal_frame(vecs, g, n, "test frame")
    assert got.shape == (NODES, n, n)
    for k in range(NODES):
        v = vecs if shared else vecs[k]
        assert np.array_equal(got[k], ch.orthonormal_frame(
            v, _metric(g, k), n, "t")[0])


def test_nodes_may_drop_different_vectors():
    # three vectors of rank 2: the third is dropped at even nodes and the
    # second at odd ones, so the nodes gather different rows
    rng = np.random.default_rng(10)
    g = _metric_stack(rng, 2)
    vecs = rng.normal(size=(3, 2, NODES))
    vecs[2, :, 0::2] = 0.5 * vecs[0, :, 0::2]
    vecs[1, :, 1::2] = -3.0 * vecs[0, :, 1::2]
    vecs = np.moveaxis(vecs, -1, 0)
    got = ch.orthonormal_frame(vecs, g, 2, "test frame")
    for k in range(NODES):
        assert np.array_equal(got[k], ch.orthonormal_frame(
            vecs[k], _metric(g, k), 2, "t")[0])


def test_a_node_that_loses_rank_raises():
    rng = np.random.default_rng(11)
    g = _metric_stack(rng, 3)
    vecs = rng.normal(size=(3, 3, NODES))
    vecs[2, :, 17] = vecs[0, :, 17] - vecs[1, :, 17]
    vecs = np.moveaxis(vecs, -1, 0)
    with pytest.raises(RankError, match="rank 2 at node 17, expected 3"):
        ch.orthonormal_frame(vecs, g, 3, "test frame")


# -- reduced curvatures node by node -------------------------------------------

QUOTIENTS = {"hopf": lambda: sc.hopf({}).quotient,
             "hopf_flux": lambda: sc.hopf_flux({}).quotient,
             "product_qg": lambda: sc.product_qg({}).quotient,
             "s3xt2": lambda: sc.s3xt2({}).quotient,
             "two_generators": two_generator_action}
SECTIONS = {"sphere_in_flat": lambda: sc.sphere_in_flat({"c": 0.5}).section,
            "two_constraints": two_constraint_section}


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_quotient_curvatures_keep_every_nodes_bits(name):
    scn = QUOTIENTS[name]()
    nodes = scn.quotient.sample(np.random.default_rng(14), 9)
    q = batch_of(nodes)
    lp = qt.LiftedPoint(scn, q)
    basis = lp.basis
    amb = qt.reduced_curvature_quotient(lp)
    direct = qt.reduced_curvature_direct(scn, q, basis)
    m = scn.reduced_dim
    assert basis.shape == (9, m, m) and amb.shape == direct.shape == \
        (9, m, m, m, m)
    for k, node in enumerate(nodes):
        one = qt.LiftedPoint(scn, node)     # a one-node batch
        b = one.basis
        assert np.array_equal(basis[k], b[0])
        assert np.array_equal(amb[k],
                              qt.reduced_curvature_quotient(one)[0])
        assert np.array_equal(direct[k], qt.reduced_curvature_direct(
            scn, node, b)[0])


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_curvatures_keep_every_nodes_bits(name):
    scn = SECTIONS[name]()
    nodes = scn.nchart.sample(np.random.default_rng(15), 9)
    u = batch_of(nodes)
    lp = sm.LocusPoint(scn, u)
    basis = lp.basis
    amb = sm.reduced_curvature_sub(lp)
    direct = sm.reduced_curvature_sub_direct(scn, u, basis)
    for k, node in enumerate(nodes):
        one = sm.LocusPoint(scn, node)      # a one-node batch
        b = one.basis
        assert np.array_equal(basis[k], b[0])
        assert np.array_equal(amb[k],
                              sm.reduced_curvature_sub(one)[0])
        assert np.array_equal(direct[k], sm.reduced_curvature_sub_direct(
            scn, node, b)[0])


def test_reduction_matrices_of_a_batch_are_the_node_matrices():
    scn = two_generator_action()
    nodes = [scn.lift(q) for q in
             scn.quotient.sample(np.random.default_rng(16), 9)]
    rm = matrices_at(scn.ea, scn.ctx, batch_of(nodes))
    for k, p in enumerate(nodes):
        one = matrices_at(scn.ea, scn.ctx, p)
        for f in ("G", "K", "T", "Kinv", "Tinv"):
            assert np.array_equal(getattr(rm, f)[k],
                                  getattr(one, f)[0])


# -- the two checks against the loops they replaced ----------------------------

def check_rng(cid, seed):
    return np.random.default_rng([seed, ck.CHECK_ORDER.index(cid)])


def loop_thm63(scn, seed, points=50):
    rng = check_rng("thm63", seed)
    worst = 0.0
    for q in scn.quotient.sample(rng, points):
        lp = qt.LiftedPoint(scn, q)
        d = qt.reduced_curvature_quotient(lp) \
            - qt.reduced_curvature_direct(scn, q, lp.basis)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def loop_thm65(scn, seed, points=50):
    rng = check_rng("thm65", seed)
    worst = 0.0
    for u in scn.nchart.sample(rng, points):
        lp = sm.LocusPoint(scn, u)
        d = sm.reduced_curvature_sub(lp) \
            - sm.reduced_curvature_sub_direct(scn, u, lp.basis)
        worst = max(worst, float(np.max(np.abs(d))))
    return worst


def scenario_of(scn):
    return sc.Scenario("custom", scn.ctx, {}, ea=scn.ea, quotient=scn)


def run(s, cid, seed, points=None):
    return ck.REGISTRY[cid].fn(s, check_rng(cid, seed),
                               ck.REGISTRY[cid].tolerance, points)


def record(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of its argument tuples."""
    calls, original = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_thm63_equals_the_point_loop(monkeypatch, name, seed):
    scn = QUOTIENTS[name]()
    calls = record(monkeypatch, qt, "reduced_curvature_direct")
    got = run(scenario_of(scn), "thm63", seed)
    assert [dual.nodes(c[1]) for c in calls] == [50]
    monkeypatch.undo()
    assert got.max_residual == loop_thm63(scn, seed)
    if name != "two_generators":        # that action need not be valid
        assert got.status == "pass"


@pytest.mark.parametrize("seed", [42, 7])
def test_thm65_equals_the_point_loop(monkeypatch, seed):
    s = sc.build("sphere_in_flat", {"c": 0.5})
    calls = record(monkeypatch, sm, "reduced_curvature_sub_direct")
    got = run(s, "thm65", seed)
    assert [dual.nodes(c[1]) for c in calls] == [50]
    monkeypatch.undo()
    assert got.max_residual == loop_thm65(s.section, seed)
    assert got.status == "pass"


def test_70_points_take_two_batches_and_the_loops_result(monkeypatch):
    scn = sc.s3xt2({}).quotient
    direct = record(monkeypatch, qt, "reduced_curvature_direct")
    sub = record(monkeypatch, sm, "reduced_curvature_sub_direct")
    got = run(scenario_of(scn), "thm63", 42, points=70)
    s = sc.build("sphere_in_flat", {"c": 0.5})
    got65 = run(s, "thm65", 42, points=70)
    assert [dual.nodes(c[1]) for c in direct] == [64, 6]
    assert [dual.nodes(c[1]) for c in sub] == [64, 6]
    monkeypatch.undo()
    assert got.points == got65.points == 70
    assert got.max_residual == loop_thm63(scn, 42, points=70)
    assert got65.max_residual == loop_thm65(s.section, 42, points=70)


BUILTIN_CHECKS = [("hopf", "thm63"), ("hopf_flux", "thm63"),
                  ("product_qg", "thm63"), ("s3xt2", "thm63"),
                  ("sphere_in_flat", "thm65")]


@pytest.mark.parametrize("name, cid", BUILTIN_CHECKS,
                         ids=[n for n, _ in BUILTIN_CHECKS])
def test_the_direct_curvature_runs_once_per_chunk(monkeypatch, name, cid):
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    owner, routine = (qt, "reduced_curvature_direct") if cid == "thm63" \
        else (sm, "reduced_curvature_sub_direct")
    calls = record(monkeypatch, owner, routine)
    assert ck.run_check(s, cid, 42).status == "pass"
    assert [dual.nodes(c[1]) for c in calls] == [50]


def test_s3xt2_puts_dual_batch_coordinates_through_the_lift_solve(
        monkeypatch):
    calls = record(monkeypatch, ch, "solve_linear")
    ck.run_check(sc.s3xt2({}), "thm63", 42, points=3)
    bodies = [v for m, _ in calls for v in np.asarray(m).ravel()
              if isinstance(v, Dual)]
    assert any(isinstance(dual.body(v), Batch) for v in bodies)


def test_a_lift_with_no_batch_form_runs_point_by_point(monkeypatch):
    base = sc.build("hopf_flux", {})
    scn = base.quotient
    seen = []

    def lift(q):
        seen.append((dual.nodes(q), isinstance(dual.body(q[0]), Batch)))
        return [q[0], q[1], 2.0 if q[0] > 1.0 else 2.0]

    s = dataclasses.replace(base, quotient=dataclasses.replace(scn,
                                                               lift=lift))
    calls = record(monkeypatch, qt, "reduced_curvature_direct")
    got = ck.run_check(s, "thm63", 42)
    # a batch attempt at each call, then node by node inside the lift
    assert seen[0] == (50, True) and set(seen) == {(50, True), (1, False)}
    assert [dual.nodes(c[1]) for c in calls] == [50]
    monkeypatch.undo()
    assert got == ck.run_check(base, "thm63", 42)
    assert got.max_residual == loop_thm63(scn, 42)


def branching_lift(scn):
    """hopf_flux's quotient with a lift that compares a coordinate: a
    different fiber point on each side of q0 = 1."""
    def lift(q):
        return [q[0], q[1], 2.0 if q[0] > 1.0 else q[0] * 0.5 + 1.5]
    return dataclasses.replace(scn, lift=lift)


@pytest.mark.parametrize("points, chunks", [(1, [1]), (65, [64, 1])])
def test_a_branching_lift_on_a_one_node_chunk_keeps_the_loops_bits(
        monkeypatch, points, chunks):
    # a one-node chunk too: the lift's node values stack into Batch leaves,
    # so the library sees a one-node batch point and a one-node frame
    scn = branching_lift(sc.build("hopf_flux", {}).quotient)
    calls = record(monkeypatch, qt, "reduced_curvature_direct")
    got = run(scenario_of(scn), "thm63", 42, points)
    assert [dual.nodes(c[1]) for c in calls] == chunks
    assert [dual.nodes(scn.lift(c[1])) for c in calls] == chunks
    assert [c[2].shape[0] for c in calls] == chunks
    monkeypatch.undo()
    assert got.max_residual.hex() == loop_thm63(scn, 42, points).hex()


# -- degenerate input ----------------------------------------------------------

def test_a_batch_node_outside_the_chart_raises_domain_error():
    scn = sc.s3xt2({}).quotient
    nodes = scn.quotient.sample(np.random.default_rng(17), 8)
    nodes[6, 0] = scn.quotient.upper[0] + 0.5
    with pytest.raises(DomainError, match="node 6"):
        qt.reduced_curvature_direct(scn, batch_of(nodes), np.eye(4))
    # inside an enclosing jet: Dual coordinates over Batch values
    p = [Dual(x, 1.0, dual.fresh_level()) if i == 0 else x
         for i, x in enumerate(batch_of([scn.lift(q) for q in nodes]))]
    with pytest.raises(DomainError, match="node 6"):
        qt.d_constraint_rows(qt.action_jet(scn.ea, scn.ctx, p))


def test_a_jet_at_dual_batch_coordinates_keeps_dual_entries():
    scn = sc.s3xt2({}).quotient
    nodes = [scn.lift(q) for q in
             scn.quotient.sample(np.random.default_rng(18), 5)]
    lev = dual.fresh_level()
    p = batch_of(nodes)
    p[1] = Dual(p[1], 1.0, lev)
    jet = ch.differentiate(scn.ctx.g, p, order=1)
    assert jet.value.dtype == object
    for k, node in enumerate(nodes):
        q = list(node)
        q[1] = Dual(q[1], 1.0, lev)
        want = ch.differentiate(scn.ctx.g, q, order=1)
        assert _node_bits(jet.value, k) == \
            [_bits(v) for v in np.asarray(want.value, dtype=object).ravel()]


@pytest.mark.parametrize("g", [[[1.0, NAN], [0.0, 1.0]],
                               [[1.0, 0.0], [0.0, NAN]],
                               [[np.inf, 0.0], [0.0, 1.0]]])
def test_a_non_finite_metric_is_named_as_such(g):
    jet = ch.PointJet((0.25, 0.5), np.array(g), np.zeros((2, 2, 2)))
    with pytest.raises(SingularMetricError,
                       match=r"not finite at node 0 \(0\.25, 0\.5\)"):
        christoffel_of(jet)


def test_a_non_finite_metric_names_its_batch_node():
    gmat = np.repeat(np.eye(2)[None], 8, axis=0)
    gmat[3, 1, 1] = NAN
    point = batch_of(np.linspace(0.1, 0.8, 16).reshape(8, 2))
    jet = ch.PointJet(tuple(point), gmat, np.zeros((8, 2, 2, 2)))
    with pytest.raises(SingularMetricError, match=r"not finite at node 3"):
        christoffel_of(jet)


# -- one owner of the operator slots -------------------------------------------

def test_operator_slots_are_undone_by_the_chart_swap():
    assert not hasattr(lz, "operator_slots_to_raw")
    rng = np.random.default_rng(19)
    r = rng.normal(size=(4, 3, 3, 3, 3))
    frames = [rng.normal(size=(4, 2, 3)) for _ in range(4)]
    assert np.array_equal(ch.swap_operator_slots(ch.operator_slots(r, *frames)),
                          ch.frame_contract(r, *frames))
