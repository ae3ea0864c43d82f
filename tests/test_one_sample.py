"""One sample object per reduction point, and oracles that never share it.

``quotient.LiftedPoint`` and ``submanifold.LocusPoint`` build the lifts,
the reduction matrices and the jets of the action rows and of sigma once
per sample (or batch point); the point frames, the ambient-formula reduced
curvatures and the chain checks read them from it.  A sample lifts q (or
embeds u) once, and its tau_+ lifts of the quotient frame come from the
lifts that its reduced metric is built from.  Each field is evaluated once
per sample: a Geometry reads g and H from its jets when it holds them, the
bracket route reads X and Y from its jets, and the reduction matrices come
from the g, V and xi the caller holds.  A Geometry inverts its g once, and
Christoffel, Riemann and the vertical derivative read that inverse; the
vertical derivative also reads the sample's action jet and takes none of
its own.  The counts below pin that work per sample.  Every oracle keeps
(scn, point, basis) and builds its own data, so none of them may receive a
sample object or a Geometry.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import genmetric as gm
from ggred import gk as gkmod
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.chart import ChartField
from ggred.dual import Batch, Dual


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of its argument tuples."""
    calls, original = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


def record_evaluations(monkeypatch):
    """Record every ``chart.differentiate`` call, (f, point, order) each,
    and every field evaluated by value outside a jet; returns (jets,
    values)."""
    jets, values, depth = [], [], [0]
    differentiate, call = ch.differentiate, ChartField.__call__

    def recorded(f, point, order=1, chart=None):
        jets.append((f, point, order))
        depth[0] += 1
        try:
            return differentiate(f, point, order=order, chart=chart)
        finally:
            depth[0] -= 1

    def evaluated(field, coords):
        if not depth[0]:
            values.append(field)
        return call(field, coords)
    monkeypatch.setattr(ch, "differentiate", recorded)
    monkeypatch.setattr(ChartField, "__call__", evaluated)
    return jets, values


def counted_map(scn, name):
    """``scn`` with its map ``name`` (``lift`` or ``embed``) wrapped; returns
    (scenario, the points it maps outside a jet)."""
    calls, original = [], getattr(scn, name)

    def spy(coords):
        if not any(isinstance(x, Dual) for x in coords):
            calls.append(coords)
        return original(coords)
    spy.batch_form = True
    return replace(scn, **{name: spy}), calls


def record_sigma_jets(monkeypatch):
    """The order of every ``SectionData.jet`` taken."""
    orders, jet = [], sm.SectionData.jet

    def recorded(self, point, order=1):
        orders.append(order)
        return jet(self, point, order=order)
    monkeypatch.setattr(sm.SectionData, "jet", recorded)
    return orders


# -- the work of one sample -------------------------------------------------------

def test_localize2_sample_lifts_twice_and_takes_one_row_jet(monkeypatch):
    scn, lifted = counted_map(sc.s3xt2({}).quotient, "lift")
    qs = scn.quotient.sample(np.random.default_rng(
        [42, ck.CHECK_ORDER.index("localize2")]), 2)
    lifts = count_calls(monkeypatch, qt, "horizontal_lift")
    jets, values = record_evaluations(monkeypatch)
    matrices, reduction_matrices = [], qt.reduction_matrices

    def matrices_of(*args):     # the evaluations made inside the call
        before = len(jets) + len(values)
        out = reduction_matrices(*args)
        matrices.append(len(jets) + len(values) - before)
        return out
    monkeypatch.setattr(qt, "reduction_matrices", matrices_of)
    for q in qs:
        residuals = ck._chain_residual(
            partial(qt.LiftedPoint, scn), lz.point_frame_quotient,
            qt.reduced_curvature_quotient, "quotient", q)
        assert ch.max_abs(residuals) <= ck.REGISTRY["localize2"].tolerance
    # per sample: one lift of q, the tau_+ lift of the coordinate frame
    # (the frame's tau_+ lifts are its combinations) and the tau_- lift of
    # the frame
    assert len(lifted) == 2
    assert [sign for _, _, sign, _ in lifts] == [+1, -1] * 2
    # one set of matrices per sample, from the g, V and xi it holds
    assert matrices == [0, 0]
    # the one jet that is not of a field: the stacked action rows
    # [V, xi, gV], which the vertical-derivative term reads too
    rows = [order for f, _, order in jets if not isinstance(f, ChartField)]
    assert rows == [1] * 2


def test_the_vertical_derivative_reads_the_held_jets(monkeypatch):
    scn = sc.s3xt2({}).quotient
    q = [Batch(c) for c in scn.quotient.sample(np.random.default_rng(
        [42, ck.CHECK_ORDER.index("thm63")]), 4).T]
    lp = qt.LiftedPoint(scn, q)
    # the curvature's first term takes the order-2 jet of g and H's jet
    gm.bismut_curvature(-1, lp.geo)
    jets, values = record_evaluations(monkeypatch)
    dmat = qt._minus_derivative_matrix(lp.geo, lp.jet)
    assert dmat.shape == (4, scn.ea.s, scn.ambient_dim, scn.ambient_dim)
    assert jets == [] and values == []


def test_a_locus_sample_embeds_u_once():
    scn, embedded = counted_map(sc.build("sphere_in_flat", {"c": 0.5})
                                .section, "embed")
    u = [Batch(c) for c in scn.nchart.sample(np.random.default_rng(8), 3).T]
    lp = sm.LocusPoint(scn, u)
    assert embedded == [u]
    assert np.array_equal(lp.basis, sm.tangent_frame(scn, u))


@pytest.mark.parametrize("name, cid, batches", [("s3xt2", "thm63", 1),
                                                ("hopf_flux", "localize2", 2)])
def test_a_geometry_inverts_its_g_once(monkeypatch, name, cid, batches):
    s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
    built, init = [], gm.Geometry.__init__

    def recorded(geo, ctx, point):
        built.append(geo)
        init(geo, ctx, point)
    monkeypatch.setattr(gm.Geometry, "__init__", recorded)
    # the chain eliminates its own Gaussian block, whose body is g: the
    # other side of the localize2 cross-check, so not counted here
    inverted, eliminating = [], [0]
    eliminate = lz.AuxiliaryPolynomial.eliminate

    def eliminated(poly, group):
        eliminating[0] += 1
        try:
            return eliminate(poly, group)
        finally:
            eliminating[0] -= 1
    monkeypatch.setattr(lz.AuxiliaryPolynomial, "eliminate", eliminated)
    gauss_jordan = ch.gauss_jordan

    def spy(m):
        if not eliminating[0]:
            inverted.append(np.array(m, dtype=float))
        return gauss_jordan(m)
    monkeypatch.setattr(ch, "gauss_jordan", spy)
    assert ck.run_check(s, cid, 42).status == "pass"
    ambient = [geo for geo in built if geo.ctx is s.ctx]
    assert len(ambient) == batches      # one per batch of samples
    for geo in ambient:
        assert sum(m.shape == geo.g.shape and np.array_equal(m, geo.g)
                   for m in inverted) == 1


def test_localize3_sample_takes_one_order2_jet_of_sigma(monkeypatch):
    scn = sc.build("sphere_in_flat", {"c": 0.5}).section
    us = scn.nchart.sample(np.random.default_rng(
        [42, ck.CHECK_ORDER.index("localize3")]), 3)
    orders = record_sigma_jets(monkeypatch)
    for u in us:
        residuals = ck._chain_residual(
            partial(sm.LocusPoint, scn), lz.point_frame_section,
            sm.reduced_curvature_sub, "section", u)
        assert ch.max_abs(residuals) <= ck.REGISTRY["localize3"].tolerance
    assert orders == [2] * 3


def test_thm65_batch_takes_one_jet_of_sigma(monkeypatch):
    s = sc.build("sphere_in_flat", {"c": 0.5})
    orders = record_sigma_jets(monkeypatch)
    assert ck.run_check(s, "thm65", 42).status == "pass"   # one batch
    assert orders == [2]


def test_the_bracket_route_takes_one_jet_of_each_field(monkeypatch):
    s = sc.build("hopf_flux", {})
    rng = np.random.default_rng(3)
    p = [Batch(c) for c in s.chart.sample(rng, 4).T]
    x, y = (ck.random_vector_field(s.chart, rng) for _ in range(2))
    jets, values = record_evaluations(monkeypatch)
    gm.bismut_via_courant(x, y, -1, s.ctx, p)
    fields = [f for f, _, _ in jets]
    # X, Y and their two flat covectors, each differentiated once
    assert len(fields) == len(set(map(id, fields))) == 4
    assert x in fields and y in fields
    # X and Y are read from their jets, never evaluated by value
    assert not any(f is x or f is y for f in values)


def test_the_direct_quotient_curvature_reads_g_and_h_from_their_jets(
        monkeypatch):
    scn = sc.s3xt2({}).quotient
    q = [Batch(c) for c in scn.quotient.sample(np.random.default_rng(4), 3).T]
    jets, values = record_evaluations(monkeypatch)
    qt.reduced_curvature_direct(scn, q, np.eye(scn.reduced_dim))
    reduced = [(f.name, order) for f, _, order in jets
               if isinstance(f, ChartField) and f.chart is scn.quotient]
    # one order-2 jet of g_red and one order-1 jet of H_red, each a lift
    # solve per pass, and neither evaluated again by value
    assert sorted(reduced) == [("H_red", 1), ("g_red", 2)]
    assert not [f.name for f in values if f.chart is scn.quotient]


def test_lemma62_takes_one_action_jet_per_batch_point(monkeypatch):
    s = sc.build("hopf_flux", {})
    action_jets = count_calls(monkeypatch, qt, "action_jet")
    matrices = count_calls(monkeypatch, qt, "reduction_matrices")
    omegas = count_calls(monkeypatch, qt, "omega_curvature")
    assert ck.run_check(s, "lemma62", 42, points=3).status == "pass"
    # the three points are one batch point, and both signs share its jet
    assert (len(action_jets), len(matrices), len(omegas)) == (1, 1, 2)


def test_lemma62_evaluates_only_its_geometrys_g_by_value(monkeypatch):
    s = sc.build("hopf_flux", {})
    jets, values = record_evaluations(monkeypatch)
    assert ck.run_check(s, "lemma62", 42).status == "pass"
    # one batch point: the Geometry's g, and the tau frames take g, g^-1,
    # V and xi from the Geometry and the action jet the check holds
    assert values == [s.ctx.g]


def test_a_batch_sample_holds_the_node_samples():
    scn = sc.s3xt2({}).quotient
    nodes = scn.quotient.sample(np.random.default_rng(19), 5)
    batch = qt.LiftedPoint(scn, [Batch(c) for c in nodes.T])
    for k, node in enumerate(nodes):
        one = qt.LiftedPoint(scn, node)     # a one-node batch
        for name in ("basis", "plus", "minus"):
            assert np.array_equal(getattr(batch, name)[k],
                                  getattr(one, name)[0])
        for name in ("G", "K", "T", "Kinv", "Tinv"):
            assert np.array_equal(getattr(batch.rm, name)[k],
                                  getattr(one.rm, name)[0])
        assert np.array_equal(batch.jet.d1[k], one.jet.d1[0])


# -- the oracles build their own data ---------------------------------------------

ORACLES = [(qt, "reduced_curvature_direct"),
           (sm, "reduced_curvature_sub_direct"),
           (qt, "oneill_curvature"),
           (sm, "gauss_equation_oracle")]
SHARED = (qt.LiftedPoint, sm.LocusPoint, gm.Geometry)


@pytest.mark.parametrize("name, cid", [("hopf_flux", "thm63"),
                                       ("sphere_in_flat", "thm65"),
                                       ("hopf", "oneill"),
                                       ("sphere_in_flat", "localize3")])
def test_no_oracle_receives_a_sample_or_a_geometry(monkeypatch, name, cid):
    s = sc.build(name, {"c": 0.5} if name == "sphere_in_flat" else {})
    seen = []
    for owner, routine in ORACLES:
        original = getattr(owner, routine)

        def oracle(*args, _original=original, _routine=routine, **kwargs):
            assert not any(isinstance(a, SHARED)
                           for a in (*args, *kwargs.values()))
            seen.append(_routine)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, routine, oracle)
    assert ck.run_check(s, cid, 42, points=3).status == "pass"
    expected = {"thm63": {"reduced_curvature_direct"},
                "thm65": {"reduced_curvature_sub_direct"},
                "oneill": {"oneill_curvature"}, "localize3": set()}[cid]
    assert set(seen) == expected


# -- one jet per distinct structure field -----------------------------------------

@pytest.mark.parametrize("name, per_point", [("product_qg", 1),
                                             ("s3xs1_gk", 2)])
def test_validate_bihermitian_takes_one_jet_per_distinct_field(
        monkeypatch, name, per_point):
    s = sc.build(name, {})
    assert (s.gk.Jplus is s.gk.Jminus) == (per_point == 1)
    points = s.chart.sample(np.random.default_rng(20), 3)
    jets, values = record_evaluations(monkeypatch)
    rep = gkmod.validate_bihermitian(s.gk, s.ctx, points)
    assert rep.passed
    structures = [p for f, p, _ in jets if f is s.gk.Jplus
                  or f is s.gk.Jminus]
    # the three points are one batch point
    assert len(structures) == per_point
    assert all(len(p[0].v) == len(points) for p in structures)
    # the flux-type residual reads J from its jet and H from the Geometry
    assert not any(f is s.gk.Jplus or f is s.gk.Jminus for f in values)
    assert [f for f in values if f is s.ctx.H] == [s.ctx.H]
