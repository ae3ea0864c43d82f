"""``localize2``, ``localize3`` and ``phi_closed_form`` on batches of samples.

The three chain checks take a chunk of at most ``dual.BATCH`` sample
points as one ``dual.Batch`` point: one ``LiftedPoint`` or ``LocusPoint``,
one point frame and one reduced curvature per chunk, and one Grassmann
stage (the elimination chain, its target and the closed-form multiplier)
on the batch frame, each word's coefficient a ``dual.Batch``.  Every node
must keep the bits of its own point-by-point evaluation, so each report
must equal the point loop it replaced, copied here, exactly (each point a
one-node batch).  A run
of any size is batched; a field or map with no batch form runs node by
node inside itself, and the library still sees batch points.
"""

import dataclasses
import math

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.dual import Batch
from ggred.errors import FrameMismatchError
from ggred.genmetric import GeneralizedMetricContext
from reduction_cases import two_constraint_section, two_generator_action

QUOTIENTS = {"hopf": lambda: sc.hopf({}).quotient,
             "hopf_flux": lambda: sc.hopf_flux({}).quotient,
             "product_qg": lambda: sc.product_qg({}).quotient,
             "s3xt2": lambda: sc.s3xt2({}).quotient,
             "two_generators": two_generator_action}
SECTIONS = {"sphere_in_flat": lambda: sc.sphere_in_flat({}).section,
            "sphere_in_flat_c05":
                lambda: sc.sphere_in_flat({"c": 0.5}).section,
            "two_constraints": two_constraint_section}


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes).T]


def check_rng(cid, seed):
    return np.random.default_rng([seed, ck.CHECK_ORDER.index(cid)])


def scenario_of(scn):
    if isinstance(scn, qt.QuotientScenario):
        return sc.Scenario("custom", scn.ctx, {}, ea=scn.ea, quotient=scn)
    return sc.Scenario("custom", scn.ctx, {}, section=scn)


def run(s, cid, seed, points=None):
    spec = ck.REGISTRY[cid]
    return spec.fn(s, check_rng(cid, seed), spec.tolerance, points)


def node_values(c):
    """A Grassmann coefficient's values: a Batch's array or the float."""
    return c.v if isinstance(c, Batch) else c


def record(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of its argument tuples."""
    calls, original = [], getattr(owner, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, spy)
    return calls


# -- test-local copies of the point-by-point loops ----------------------------

def loop_chain(cid, scn, seed, points=100):
    """localize2 (quotient) or localize3 (section), one sample at a time."""
    rng = check_rng(cid, seed)
    samples = []
    if cid == "localize2":
        xs, sample = scn.quotient.sample(rng, points), qt.LiftedPoint
        frame, curvature = lz.point_frame_quotient, \
            qt.reduced_curvature_quotient
        model = "quotient"
    else:
        xs, sample = scn.nchart.sample(rng, points), sm.LocusPoint
        frame, curvature, model = lz.point_frame_section, \
            sm.reduced_curvature_sub, "section"
    for x in xs:
        lp = sample(scn, x)
        pf = frame(lp)                  # a point is a one-node batch
        exponent, _ = lz.localize_model(pf, model)
        target = lz.localized_exponent_target(pf, curvature(lp))
        low = [node_values(c) for m, c in exponent.coeffs.items()
               if m.bit_count() < 4]
        samples.append([(exponent - target).max_abs()] + low)
    return ch.max_abs(samples)


def loop_phi(scn, seed, points=25):
    rng = check_rng("phi_closed_form", seed)
    out = []
    for q in scn.quotient.sample(rng, points):
        pf = lz.point_frame_quotient(qt.LiftedPoint(scn, q))
        _, details = lz.localize_model(pf, "quotient")
        closed = ck.mixed_multiplier_closed_form(pf)
        out += [(closed[a] - details[f"pm{a}"][0]).max_abs()
                for a in range(pf.s)]
    return ch.max_abs(out)


def loop(cid, scn, seed, points=None):
    if cid == "phi_closed_form":
        return loop_phi(scn, seed, points or 25)
    return loop_chain(cid, scn, seed, points or 100)


def status(cid, residual):
    return "pass" if residual <= ck.REGISTRY[cid].tolerance else "fail"


# -- the checks against the loops ---------------------------------------------

CASES = [(cid, name) for name in sorted(QUOTIENTS)
         for cid in ("localize2", "phi_closed_form")] + \
    [("localize3", name) for name in sorted(SECTIONS)]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("cid, name", CASES,
                         ids=[f"{c}-{n}" for c, n in CASES])
def test_check_equals_the_point_loop(cid, name, seed):
    scn = (QUOTIENTS if cid != "localize3" else SECTIONS)[name]()
    got = run(scenario_of(scn), cid, seed)
    want = loop(cid, scn, seed)
    assert got.max_residual.hex() == want.hex()
    assert got.status == status(cid, want)


def test_70_points_take_two_chunks_and_the_loops_result(monkeypatch):
    scn = QUOTIENTS["hopf_flux"]()
    sec = SECTIONS["sphere_in_flat_c05"]()
    frames = record(monkeypatch, lz, "point_frame_quotient")
    sections = record(monkeypatch, lz, "point_frame_section")
    got2 = run(scenario_of(scn), "localize2", 42, points=70)
    got3 = run(scenario_of(sec), "localize3", 42, points=70)
    assert [dual.nodes(lp.p) for lp, in frames] == [64, 6]
    assert [dual.nodes(lp.p) for lp, in sections] == [64, 6]
    monkeypatch.undo()
    assert got2.points == got3.points == 70
    assert got2.max_residual.hex() == loop_chain("localize2", scn, 42,
                                                 70).hex()
    assert got3.max_residual.hex() == loop_chain("localize3", sec, 42,
                                                 70).hex()


# (scenario, check, point frame, the sizes of its samples at default points)
CHUNKS = [("hopf", "localize2", "point_frame_quotient", [64, 36]),
          ("hopf_flux", "localize2", "point_frame_quotient", [64, 36]),
          ("product_qg", "localize2", "point_frame_quotient", [64, 36]),
          ("s3xt2", "localize2", "point_frame_quotient", [64, 36]),
          ("hopf", "phi_closed_form", "point_frame_quotient", [25]),
          ("hopf_flux", "phi_closed_form", "point_frame_quotient", [25]),
          ("product_qg", "phi_closed_form", "point_frame_quotient", [25]),
          ("s3xt2", "phi_closed_form", "point_frame_quotient", [25]),
          ("sphere_in_flat", "localize3", "point_frame_section", [64, 36])]


@pytest.mark.parametrize("name, cid, frame, sizes", CHUNKS,
                         ids=[f"{n}-{c}" for n, c, _, _ in CHUNKS])
def test_the_point_frame_runs_once_per_chunk(monkeypatch, name, cid, frame,
                                            sizes):
    # a count, so a batch path that fell back to points cannot pass here
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    frames = record(monkeypatch, lz, frame)
    curvatures = record(monkeypatch, qt, "reduced_curvature_quotient")
    sections = record(monkeypatch, sm, "reduced_curvature_sub")
    models = record(monkeypatch, lz, "localize_model")
    assert ck.run_check(s, cid, 42).status == "pass"
    assert [dual.nodes(lp.p) for lp, in frames] == sizes
    if cid != "phi_closed_form":
        curvature = sections if cid == "localize3" else curvatures
        assert [c[0] for c in curvature] == [c[0] for c in frames]
    # the Grassmann stage: one chain per chunk, on its batch frame
    assert [pf.g.shape[0] for pf, _ in models] == sizes


@pytest.mark.parametrize("points", [1, 2, 3])
def test_a_short_run_is_one_batch_of_that_many_nodes(monkeypatch, points):
    scn = QUOTIENTS["hopf_flux"]()
    frames = record(monkeypatch, lz, "point_frame_quotient")
    got = run(scenario_of(scn), "localize2", 42, points=points)
    assert [dual.nodes(lp.p) for lp, in frames] == [points]
    monkeypatch.undo()
    assert got.max_residual.hex() == loop_chain("localize2", scn, 42,
                                                points).hex()


@pytest.mark.parametrize("points", [65, 67])
def test_a_short_tail_chunk_is_a_batch(monkeypatch, points):
    scn = QUOTIENTS["hopf_flux"]()
    frames = record(monkeypatch, lz, "point_frame_quotient")
    got = run(scenario_of(scn), "localize2", 42, points=points)
    assert [dual.nodes(lp.p) for lp, in frames] == [64, points - 64]
    monkeypatch.undo()
    assert got.max_residual.hex() == loop_chain("localize2", scn, 42,
                                                points).hex()


# -- a field with no batch form -----------------------------------------------

def libm_metric(ctx):
    """ctx with g times 1.0 + 0.0 sin(c0) through ``math``: the same bits
    at a point and inside a jet, a TypeError at a batch point."""
    g = ctx.g

    def fn(c):
        return np.asarray(g.fn(c), dtype=object) * \
            (1.0 + 0.0 * math.sin(dual.body(c[0])))
    return GeneralizedMetricContext(
        ch.ChartField(g.chart, g.valence, fn, name=g.name), ctx.H)


@pytest.mark.parametrize("cid", ["localize2", "phi_closed_form",
                                 "localize3"])
def test_a_math_field_gives_the_loops_report(monkeypatch, cid):
    base = SECTIONS["sphere_in_flat_c05"]() if cid == "localize3" \
        else QUOTIENTS["hopf_flux"]()
    scn = dataclasses.replace(base, ctx=libm_metric(base.ctx))
    frame = "point_frame_section" if cid == "localize3" \
        else "point_frame_quotient"
    frames = record(monkeypatch, lz, frame)
    got = run(scenario_of(scn), cid, 42)
    assert frames and all(isinstance(lp.p[0], Batch) for lp, in frames)
    monkeypatch.undo()
    assert got == run(scenario_of(base), cid, 42)
    assert got.max_residual.hex() == loop(cid, scn, 42).hex()


def branching_map(scn):
    """The scenario with a lift or an embedding that compares a coordinate
    (the same values on both sides, through different expressions)."""
    if isinstance(scn, qt.QuotientScenario):
        def lift(q):
            return [q[0], q[1], 2.0 if q[0] > 1.0 else q[0] * 0.0 + 2.0]
        return dataclasses.replace(scn, lift=lift)
    embed = scn.embed

    def branching(u):
        p = embed(u)
        return p if u[0] > 1.0 else [p[0], p[1], p[2] + 0.0]
    return dataclasses.replace(scn, embed=branching)


@pytest.mark.parametrize("points, chunks", [(1, [1]), (65, [64, 1])])
@pytest.mark.parametrize("cid", ["localize2", "localize3"])
def test_a_branching_map_on_a_one_node_chunk_keeps_the_loops_bits(
        monkeypatch, cid, points, chunks):
    base = SECTIONS["sphere_in_flat_c05"]() if cid == "localize3" \
        else QUOTIENTS["hopf_flux"]()
    scn = branching_map(base)
    frame = "point_frame_section" if cid == "localize3" \
        else "point_frame_quotient"
    frames = record(monkeypatch, lz, frame)
    got = run(scenario_of(scn), cid, 42, points=points)
    # the map's node values stack into Batch leaves at one node too
    assert [dual.nodes(lp.p) for lp, in frames] == chunks
    assert [lp.basis.shape[0] for lp, in frames] == chunks
    monkeypatch.undo()
    assert got.max_residual.hex() == loop_chain(cid, scn, 42, points).hex()


# -- the point frames of a batch sample ---------------------------------------

def _frames_equal(got, k, want):
    """Node k of the batch frame ``got`` against the one-node ``want``."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape[1:] == b.shape[1:], f.name
            assert np.array_equal(a[k], b[0]), f.name
        elif f.name != "point":
            assert a == b, f.name
    assert np.array_equal(dual.tighten(list(got.point), len(got.g))[k],
                          np.asarray(want.point, dtype=float))


@pytest.mark.parametrize("name", sorted(QUOTIENTS))
def test_quotient_frame_nodes_keep_their_bits(name):
    scn = QUOTIENTS[name]()
    nodes = scn.quotient.sample(np.random.default_rng(21), 7)
    pf = lz.point_frame_quotient(qt.LiftedPoint(scn, batch_of(nodes)))
    assert pf.V.shape[0] == pf.r_minus.shape[0] == 7
    for k, node in enumerate(nodes):
        want = lz.point_frame_quotient(qt.LiftedPoint(scn, node))
        _frames_equal(pf, k, want)


@pytest.mark.parametrize("name", sorted(SECTIONS))
def test_section_frame_nodes_keep_their_bits(name):
    scn = SECTIONS[name]()
    nodes = scn.nchart.sample(np.random.default_rng(22), 7)
    pf = lz.point_frame_section(sm.LocusPoint(scn, batch_of(nodes)))
    for k, node in enumerate(nodes):
        want = lz.point_frame_section(sm.LocusPoint(scn, node))
        _frames_equal(pf, k, want)


# -- zero-mode frames that violate their constraint ---------------------------

def test_a_quotient_node_off_its_constraint_is_named():
    scn = QUOTIENTS["hopf_flux"]()
    nodes = scn.quotient.sample(np.random.default_rng(24), 8)
    lp = qt.LiftedPoint(scn, batch_of(nodes))
    lz.point_frame_quotient(lp)
    plus = lp.plus.copy()
    plus[5] = np.eye(*plus.shape[1:])    # coordinate vectors
    lp.plus = plus
    with pytest.raises(FrameMismatchError, match="horizontality.*node 5 "):
        lz.point_frame_quotient(lp)


def test_a_section_node_off_the_locus_is_named():
    scn = SECTIONS["sphere_in_flat"]()
    nodes = scn.nchart.sample(np.random.default_rng(25), 8)
    lp = sm.LocusPoint(scn, batch_of(nodes))
    lz.point_frame_section(lp)
    basis = lp.basis.copy()
    basis[3] = np.eye(3)[:2]   # a coordinate plane, not tangent
    lp.basis = basis
    with pytest.raises(FrameMismatchError,
                       match="not tangent to the zero locus at node 3 "):
        lz.point_frame_section(lp)


def test_a_nan_node_is_named():
    scn = SECTIONS["sphere_in_flat"]()
    lp = sm.LocusPoint(scn, batch_of(
        scn.nchart.sample(np.random.default_rng(26), 8)))
    basis = lp.basis.copy()
    basis[6, 0, 0] = math.nan
    lp.basis = basis
    with pytest.raises(FrameMismatchError, match="node 6 "):
        lz.point_frame_section(lp)


def test_a_point_off_its_constraint_names_the_point():
    scn = SECTIONS["sphere_in_flat"]()
    lp = sm.LocusPoint(scn, scn.nchart.sample(np.random.default_rng(27),
                                              1)[0])
    lp.basis = np.eye(3)[None, :2]
    with pytest.raises(FrameMismatchError, match=r"at node 0 \("):
        lz.point_frame_section(lp)
