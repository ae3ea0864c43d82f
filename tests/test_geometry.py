"""One ``genmetric.Geometry`` per point or batch point, and no jet memo.

A Geometry computes g, g^-1, H, the jet of g, Gamma, R and the torsion
terms of R^pm once each, on first use.  The code under test shares one per
sample (a point frame and the ambient-formula reduced curvature read the
one of the same sample object; ``pair_symmetry`` takes both signs from one
per batch), while
each oracle builds its own.  Every ``chart.differentiate`` call takes a jet
afresh, so running a check twice repeats its results and its jet passes.
The batch route is exercised with the node-by-node fallback of
``dual.per_node`` switched off.
"""

from functools import partial

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import genmetric as gm
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.dual import Batch

NAMES = sorted(sc.BUILTIN) + ["s3xt2"]


def build(name, params=None):
    params = params or {}
    return sc.s3xt2(params) if name == "s3xt2" else sc.build(name, params)


def count(monkeypatch, owner, name):
    """Wrap ``owner.<name>``; returns the list of its argument tuples."""
    calls, original = [], getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, spy)
    return calls


def jets_of(monkeypatch, *fields):
    """Record every jet of the fields: (field index, order, point) each."""
    jets, differentiate = [], ch.differentiate
    fns = [f.fn for f in fields]

    def recorded(f, point, order=1, chart=None):
        fn = getattr(f, "fn", None)
        if any(fn is g for g in fns):
            jets.append(([fn is g for g in fns].index(True), order, point))
        return differentiate(f, point, order=order, chart=chart)
    monkeypatch.setattr(ch, "differentiate", recorded)
    return jets


# -- each array once per object --------------------------------------------

@pytest.mark.parametrize("name", ["hopf_flux", "s3xt2", "s3xs1_gk"])
def test_each_array_is_computed_once_per_object(monkeypatch, name):
    s = build(name)
    p = s.chart.sample(np.random.default_rng(4), 1)[0]
    riemann = count(monkeypatch, ch, "riemann")
    christoffel = count(monkeypatch, ch, "christoffel")
    nabla = count(monkeypatch, gm, "nabla_flux")
    jets = jets_of(monkeypatch, s.ctx.g, s.ctx.H)
    geo = gm.Geometry(s.ctx, p)
    for _ in range(2):
        for sign in (-1, 1):
            gm.bismut_curvature(sign, geo)
            gm.bismut_connection_coeffs(sign, geo)
        assert geo.R is geo.R and geo.gamma is geo.gamma
    assert (len(riemann), len(christoffel), len(nabla)) == (1, 1, 1)
    assert [(k, order) for k, order, _ in jets] == [(0, 2), (1, 1)]


def test_gamma_alone_takes_an_order1_jet_that_curvature_then_raises():
    s = build("hopf_flux")
    p = s.chart.sample(np.random.default_rng(5), 1)[0]
    geo = gm.Geometry(s.ctx, p)
    gamma = geo.gamma
    assert geo.jet().d2 is None
    r = geo.R
    assert geo.jet().d2 is not None and geo.jet(order=1) is geo.jet(order=2)
    fresh = gm.Geometry(s.ctx, p)
    assert np.array_equal(r, fresh.R)
    assert np.array_equal(gamma, fresh.gamma)


def test_both_signs_share_the_torsion_terms(monkeypatch):
    s = build("s3xt2")
    p = s.chart.sample(np.random.default_rng(6), 1)[0]
    geo = gm.Geometry(s.ctx, p)
    rm = gm.bismut_curvature(-1, geo)
    terms = geo.torsion_terms
    rp = gm.bismut_curvature(+1, geo)
    assert geo.torsion_terms is terms
    assert np.array_equal(rm, geo.R + terms[0] + terms[1])
    assert np.array_equal(rp, geo.R - terms[0] + terms[1])


# -- batch points ----------------------------------------------------------

@pytest.mark.parametrize("name", ["hopf_flux", "s3xt2", "s3xs1_gk",
                                  "round_sphere"])
def test_batch_geometry_equals_the_per_node_geometries(name):
    s = build(name)
    nodes = s.chart.sample(np.random.default_rng(7), 5)
    geo = gm.Geometry(s.ctx, [Batch(c) for c in nodes.T])
    arrays = {"gamma": geo.gamma, "R": geo.R,
              "R-": gm.bismut_curvature(-1, geo),
              "R+": gm.bismut_curvature(+1, geo)}
    for k, node in enumerate(nodes):
        one = gm.Geometry(s.ctx, list(node))
        want = {"gamma": one.gamma, "R": one.R,
                "R-": gm.bismut_curvature(-1, one),
                "R+": gm.bismut_curvature(+1, one)}
        for key, arr in arrays.items():
            # a point is a one-node batch
            assert np.array_equal(arr[k], want[key][0]), (key, k)


@pytest.mark.parametrize("name", ["hopf_flux", "s3xs1_gk"])
def test_pair_symmetry_takes_one_order2_jet_of_g_per_batch(monkeypatch,
                                                             name):
    s = build(name)
    jets = jets_of(monkeypatch, s.ctx.g, s.ctx.H)
    ck.run_check(s, "pair_symmetry", 42, points=70)
    assert [(k, order, dual.nodes(p)) for k, order, p in jets] == \
        [(0, 2, 64), (1, 1, 64), (0, 2, 6), (1, 1, 6)]


# -- the chain checks and the oracles --------------------------------------

def chain_residual(scn, q):
    """The localize2 rows of one float sample q of ``scn``'s quotient."""
    return ck._chain_residual(partial(qt.LiftedPoint, scn),
                              lz.point_frame_quotient,
                              qt.reduced_curvature_quotient, "quotient", q)


def test_localize2_sample_takes_one_jet_of_g_and_one_of_h(monkeypatch):
    s = build("s3xt2")
    scn = s.quotient
    q = scn.quotient.sample(np.random.default_rng(
        [42, ck.CHECK_ORDER.index("localize2")]), 1)[0]
    jets = jets_of(monkeypatch, s.ctx.g, s.ctx.H)
    chain_residual(scn, q)
    assert [(k, order) for k, order, _ in jets] == [(0, 2), (1, 1)]
    lifted = np.asarray(scn.lift(q), dtype=float)
    for _, _, p in jets:
        assert np.array_equal(np.asarray(p, dtype=float), lifted)


def test_chain_checks_hand_the_point_frame_geometry_on(monkeypatch):
    scn = build("hopf_flux").quotient
    qs = scn.quotient.sample(np.random.default_rng(
        [42, ck.CHECK_ORDER.index("localize2")]), 2)
    frames = count(monkeypatch, lz, "point_frame_quotient")
    curvature = count(monkeypatch, qt, "reduced_curvature_quotient")
    for q in qs:
        chain_residual(scn, q)
    assert len(frames) == len(curvature) == 2
    for (frame_sample,), (curvature_sample,) in zip(frames, curvature):
        assert isinstance(frame_sample, qt.LiftedPoint)
        assert curvature_sample is frame_sample


def test_oneill_takes_its_own_jet_and_no_shared_geometry(monkeypatch):
    s = build("hopf")
    jets = jets_of(monkeypatch, s.ctx.g)
    inside, original = [], qt.oneill_curvature

    def oneill(*args, **kwargs):
        assert not any(isinstance(a, gm.Geometry)
                       for a in (*args, *kwargs.values()))
        before = len(jets)
        out = original(*args, **kwargs)
        inside.append([order for _, order, _ in jets[before:]])
        return out
    monkeypatch.setattr(qt, "oneill_curvature", oneill)
    result = ck.run_check(s, "oneill", 42, points=3)
    assert result.status == "pass"
    # the three samples are one batch point
    assert inside == [[2]]
    # the ambient formula's Geometry and oneill's own: two per batch point
    assert [order for _, order, _ in jets] == [2] * 2
    assert all(dual.nodes(point) == 3 for _, _, point in jets)


def test_gauss_oracle_builds_its_own_geometry(monkeypatch):
    scn = sc.build("sphere_in_flat", {"c": 0.0}).section
    u = scn.nchart.sample(np.random.default_rng(3), 1)[0]
    built = count(monkeypatch, sm, "Geometry")
    jets = jets_of(monkeypatch, scn.ctx.g)
    lp = sm.LocusPoint(scn, u)
    formula = sm.reduced_curvature_sub(lp)
    oracle = sm.gauss_equation_oracle(scn, u, lp.basis)
    assert len(built) == 2 and [order for _, order, _ in jets] == [2, 2]
    assert np.max(np.abs(formula - oracle)) < 1e-9


def test_gauss_oracle_takes_one_jet_of_all_sigma(monkeypatch):
    scn = sc.build("sphere_in_flat", {"c": 0.0}).section
    u = scn.nchart.sample(np.random.default_rng(3), 1)[0]
    basis = sm.LocusPoint(scn, u).basis
    jets, differentiate = [], ch.differentiate

    def recorded(f, point, order=1, chart=None):
        jets.append((f is scn.ctx.g, order))
        return differentiate(f, point, order=order, chart=chart)
    monkeypatch.setattr(ch, "differentiate", recorded)
    sm.gauss_equation_oracle(scn, u, basis)
    # its Geometry's order-2 jet of g, then one order-2 jet of all sigma
    assert jets == [(True, 2), (False, 2)]


# -- no memo: a rerun repeats the results and the jet passes ---------------

@pytest.mark.parametrize("name, cid", [("hopf_flux", "pair_symmetry"),
                                       ("s3xt2", "bismut_courant"),
                                       ("product_qg", "lemma62")])
def test_rerun_check_repeats_results_and_jet_passes(monkeypatch, name, cid):
    s = build(name)
    calls = [0]
    original = dual.partial

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(dual, "partial", counted)
    runs = []
    for _ in range(2):
        calls[0] = 0
        result = ck.run_check(s, cid, 42, points=4)
        runs.append((result, calls[0]))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


def test_chart_keeps_no_jet_cache():
    assert not any(isinstance(v, dict) for k, v in vars(ch).items()
                   if not k.startswith("__"))
    s = build("hopf_flux")
    p = s.chart.sample(np.random.default_rng(1), 1)[0]
    first = ch.differentiate(s.ctx.g, p, order=2)
    again = ch.differentiate(s.ctx.g, p, order=2)
    assert first.value is not again.value and first.d1 is not again.d1
    assert np.array_equal(first.d2, again.d2)


# -- the batch route without its node-by-node fallback --------------------

def no_node_by_node(x, k):
    """``dual._at_node`` switched off: no field may run node by node."""
    raise AssertionError("a field with no batch form ran node by node")


BATCHED = ("bismut_courant", "pair_symmetry", "lemma62", "thm63", "oneill",
           "thm65", "localize2", "localize3", "phi_closed_form", "euler",
           "euler_flux", "gk_validate", "gk_reduce", "ea_validate")
STRICT = [(name, cid) for name, s in ((n, build(n)) for n in NAMES)
          for cid in BATCHED if ck.applicable(s, cid)]


def test_strict_cases_cover_every_batched_check():
    assert len(STRICT) == 46
    assert {cid for _, cid in STRICT} == set(BATCHED)
    # every registered check but the random-matrix one samples batch points
    assert set(ck.REGISTRY) - set(BATCHED) == {"pfaffian"}


@pytest.mark.parametrize("name, cid", STRICT)
def test_batch_route_runs_without_the_fallback(monkeypatch, name, cid):
    # order 4 where the scenario takes it (flat_torus keeps 16)
    euler = cid.startswith("euler") and "order" in sc.ALLOWED_PARAMS[name]
    s = build(name, {"order": 4} if euler else {})
    want = ck.run_check(s, cid, 42, points=70)
    monkeypatch.setattr(dual, "_at_node", no_node_by_node)
    got = ck.run_check(s, cid, 42, points=70)
    assert got == want
    assert got.passed
