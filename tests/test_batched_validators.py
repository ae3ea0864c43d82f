"""The last per-point checks on batch points: ``lemma62``, ``oneill``,
``ea_validate``, ``gk_validate`` and ``gk_reduce``.

Each evaluates its samples in chunks of at most ``dual.BATCH`` as one
``dual.Batch`` point, and the routines they call serve a point and a batch
point with one body of code.  ``lemma62`` and ``ea_validate`` read exactly
0.0 on every built-in scenario, so an equal report there shows nothing:
the tests below compare each node of a batch with its own point evaluation
on inputs whose values are not zero, the validators' Lie derivatives
included.  ``oneill`` applies where H and every xi read zero at its probe,
whatever the name of the H field.
"""

import dataclasses

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import genmetric as gm
from ggred import gk as gkmod
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.dual import Batch
from reduction_cases import two_generator_action
from point_routines import frames_at, omega_at

NODES = 5
QUOTIENTS = {"hopf": sc.hopf({}).quotient,
             "hopf_flux": sc.build("hopf_flux", {}).quotient,
             "product_qg": sc.product_qg({}).quotient,
             "s3xt2": sc.s3xt2({}).quotient,
             "two_generators": two_generator_action()}


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes, dtype=float).T]


def random_action(chart, rng, count=2):
    """An invalid action: random vector fields V_a and random 1-forms."""
    v = tuple(ck.random_vector_field(chart, rng) for _ in range(count))
    xi = tuple(ch.ChartField(chart, ch.COVECTOR,
                             ck.random_vector_field(chart, rng).fn,
                             name="random") for _ in range(count))
    return qt.ExtendedAction(v, xi)


# -- each node keeps the bits of its point ------------------------------------

@pytest.mark.parametrize("name", ["hopf", "hopf_flux", "s3xt2",
                                  "two_generators"])
def test_tau_frames_and_both_curvature_routes_keep_every_nodes_bits(name):
    scn = QUOTIENTS[name]
    qs = scn.quotient.sample(np.random.default_rng(30), NODES)
    nodes = [list(map(float, scn.lift(q))) for q in qs]
    batch = batch_of(nodes)
    frames = frames_at(scn.ea, scn.ctx, batch)
    largest = 0.0
    for sign, frame in zip((+1, -1), frames):
        got = omega_at(scn.ea, scn.ctx, sign, batch, frame)
        assert frame.shape[0] == got[0].shape[0] == NODES
        for k, p in enumerate(nodes):
            # a point is a one-node batch: node 0 of its arrays
            one = frames_at(scn.ea, scn.ctx, p)[0 if sign > 0
                                                          else 1]
            assert np.array_equal(frame[k], one[0])
            want = omega_at(scn.ea, scn.ctx, sign, p, one)
            for route, w in zip(got, want):
                assert np.array_equal(route[k], w[0])
        largest = max(largest, np.max(np.abs(got[0])))
    assert largest > 0.05


@pytest.mark.parametrize("name", ["hopf", "product_qg", "two_generators"])
def test_oneill_curvature_keeps_every_nodes_bits(name):
    scn = QUOTIENTS[name]
    qs = scn.quotient.sample(np.random.default_rng(31), NODES)
    batch = batch_of(qs)
    basis = qt.quotient_frame(scn, batch)
    got = qt.oneill_curvature(scn, batch, basis)
    assert got.shape[0] == NODES and np.max(np.abs(got)) > 0.05
    for k, q in enumerate(qs):
        one = qt.quotient_frame(scn, list(q))     # a one-node batch
        assert np.array_equal(basis[k], one[0])
        assert np.array_equal(got[k],
                              qt.oneill_curvature(scn, list(q), one)[0])


@pytest.mark.parametrize("name", ["product_qg", "s3xt2"])
def test_lie_derivative_keeps_every_nodes_bits(name):
    ctx = QUOTIENTS[name].ctx
    rng = np.random.default_rng(36)
    ea = random_action(ctx.chart, rng, count=1)
    v = ea.V[0]
    nodes = ctx.chart.sample(rng, dual.BATCH)
    jv = ch.differentiate(v, batch_of(nodes))
    for t in (ctx.g, ctx.H, ea.xi[0]):
        got = ch.lie_derivative(jv, ch.differentiate(t, batch_of(nodes)))
        for k, p in enumerate(nodes):
            want = ch.lie_derivative(ch.differentiate(v, list(p)),
                                     ch.differentiate(t, list(p)))
            assert np.array_equal(got[k], want[0])


# -- a validator's report is the max of its points' reports -------------------

def hexes(report):
    return {k: c.residual.hex() for k, c in report.conditions.items()}


def max_hexes(reports):
    return {k: max(r.conditions[k].residual for r in reports).hex()
            for k in reports[0].conditions}


def point_by_point(fn, chunks):
    """``dual.batched``'s route for a field with no batch form."""
    for points, *args in chunks:
        for node, *node_args in zip(points, *args):
            yield fn(list(node), *node_args)


@pytest.mark.parametrize("name", ["product_qg", "s3xt2"])
def test_extended_action_report_is_the_max_of_its_points(monkeypatch, name):
    ctx = QUOTIENTS[name].ctx
    rng = np.random.default_rng(32)
    ea = random_action(ctx.chart, rng)
    points = ctx.chart.sample(rng, NODES)
    report = qt.validate_extended_action(ea, ctx, points)
    alone = [qt.validate_extended_action(ea, ctx, [p]) for p in points]
    assert hexes(report) == max_hexes(alone)
    assert all(report.conditions[k].residual > 0.05
               for k in ("isotropy", "flux_match", "invariance"))
    monkeypatch.setattr(dual, "batched", point_by_point)
    assert hexes(qt.validate_extended_action(ea, ctx, points)) == \
        hexes(report)


# product_qg has no flux, so its flux_type residual is 0 whatever the
# triples; s3xs1_gk's is not
@pytest.mark.parametrize("name", ["product_qg", "s3xs1_gk"])
def test_bihermitian_report_is_the_max_of_its_points(monkeypatch, name):
    s = sc.build(name, {"jplus_perturb": 0.3})
    points = s.chart.sample(np.random.default_rng(33), NODES)
    report = gkmod.validate_bihermitian(s.gk, s.ctx, points,
                                        rng=np.random.default_rng(34))
    # one generator for the point-by-point calls: the same triples
    rng = np.random.default_rng(34)
    alone = [gkmod.validate_bihermitian(s.gk, s.ctx, [p], rng=rng)
             for p in points]
    assert hexes(report) == max_hexes(alone)
    assert not report.passed and report.max_residual > 0.05
    if s.ctx.has_flux:
        assert report.conditions["flux_type"].residual > 0.05
    monkeypatch.setattr(dual, "batched", point_by_point)
    assert hexes(gkmod.validate_bihermitian(
        s.gk, s.ctx, points, rng=np.random.default_rng(34))) == hexes(report)


def test_a_projection_with_no_batch_form_keeps_the_point_stream(monkeypatch):
    # the quotient is 2-dimensional, so its flux_type residual is 0 whatever
    # the triples: the generator's state after the run shows the draws
    base = sc.product_qg({"jplus_perturb": 0.3})
    seen = []

    def project(c):                 # a comparison: no batch form
        seen.append(isinstance(dual.body(c[0]), Batch))
        return [c[0], c[1] if c[0] > 0.0 else -c[1]]

    s = dataclasses.replace(base, quotient=dataclasses.replace(
        base.quotient, project=project))
    rng = np.random.default_rng(37)
    got = ck.check_gk_reduce(s, rng, 1e-8, points=5)
    assert any(seen) and got.max_residual > 0.05
    monkeypatch.setattr(ck, "batched", point_by_point)
    monkeypatch.setattr(dual, "batched", point_by_point)
    alone = np.random.default_rng(37)
    assert ck.check_gk_reduce(s, alone, 1e-8, points=5) == got
    assert rng.bit_generator.state == alone.bit_generator.state


def test_one_draw_of_the_triples_is_the_draw_per_point_and_structure():
    n, points = 4, 3
    one = np.random.default_rng(35).normal(size=(points, 2, 4, 3, n))
    rng = np.random.default_rng(35)
    loop = [[[rng.normal(size=(3, n)) for _ in range(4)] for _ in range(2)]
            for _ in range(points)]
    assert np.array_equal(one, np.array(loop))


# -- oneill reads the values of H ---------------------------------------------

def test_a_zero_flux_under_another_name_gets_oneill():
    s = sc.build("hopf", {})
    n = s.chart.dim
    zero = ch.ChartField(s.chart, ch.form_valence(3),
                         lambda c: np.zeros((n, n, n)), name="H")
    ctx = gm.GeneralizedMetricContext(s.ctx.g, zero)
    custom = dataclasses.replace(
        s, ctx=ctx, quotient=dataclasses.replace(s.quotient, ctx=ctx))
    assert ctx.has_flux     # by its name
    assert ck.default_checks(custom) == ck.default_checks(s)
    assert ck.run_check(custom, "oneill", 42, points=3) == \
        ck.run_check(s, "oneill", 42, points=3)
    assert not ck.applicable(sc.build("hopf_flux", {}), "oneill")


DEFAULTS = {
    "flat_torus": ["bismut_courant", "pair_symmetry", "euler", "pfaffian"],
    "hopf": ["bismut_courant", "pair_symmetry", "lemma62", "thm63",
             "oneill", "localize2", "phi_closed_form", "ea_validate"],
    "hopf_flux": ["bismut_courant", "pair_symmetry", "lemma62", "thm63",
                  "localize2", "phi_closed_form", "ea_validate"],
    "product_qg": ["bismut_courant", "pair_symmetry", "lemma62", "thm63",
                   "oneill", "localize2", "phi_closed_form", "gk_validate",
                   "gk_reduce", "ea_validate"],
    "round_sphere": ["bismut_courant", "pair_symmetry", "euler"],
    "s3xs1_gk": ["bismut_courant", "pair_symmetry", "euler_flux",
                 "gk_validate"],
    "sphere_in_flat": ["bismut_courant", "pair_symmetry", "thm65",
                       "localize3"],
    "s3xt2": ["bismut_courant", "pair_symmetry", "lemma62", "thm63",
              "localize2", "phi_closed_form", "ea_validate"],
}


def test_the_default_checks_of_every_built_in():
    assert set(DEFAULTS) == set(sc.BUILTIN) | {"s3xt2"}
    for name, want in DEFAULTS.items():
        s = sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})
        assert ck.default_checks(s) == want
