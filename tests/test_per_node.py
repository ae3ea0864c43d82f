"""One kind of point: the library sees only batch points.

A user function with no batch form (it compares a coordinate or calls
``math``) runs node by node inside itself (``dual.per_node``), applied once
where it enters the library: ``ChartField.fn``, ``QuotientScenario.lift`` and
``project``, ``SubmanifoldScenario.embed``; its node values stack into
``Batch`` leaves, at one node too.  ``dual.batched`` is then a plain chunk
loop, and the library builds its own fields with ``chart.batch_field``,
which does not wrap them, so a ``TypeError`` from library code propagates
instead of rerunning the check point by point.
"""

import dataclasses
import math

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import cli
from ggred import dual
from ggred import genmetric as gm
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.dual import Batch
from ggred.errors import EvaluationError

NAMES = sorted(sc.BUILTIN) + ["s3xt2"]
BOX = ch.Chart("box", (0.0, 0.0), (2.0, 2.0))


def batch_of(nodes):
    return [Batch(col) for col in np.asarray(nodes).T]


def is_batch_point(point):
    """A coordinate holds a Batch (``dual.nodes`` reads a plain point as one
    node too, so it cannot tell the two apart)."""
    return any(isinstance(dual.body(x), Batch) for x in point)


def branching(c):
    """Each component takes a different branch at some nodes; one branch
    is a constant, one calls libm on the body."""
    a = c[0] * c[1] if c[0] > 1.0 else 2.0
    b = dual.exp(c[1]) if c[1] < 0.5 else c[0] * c[0]
    return [[a, math.sin(dual.body(c[0]))], [b, a * b + dual.sin(c[1])]]


def test_a_field_is_wrapped_once():
    field = ch.ChartField(BOX, ch.METRIC, branching)
    again = dataclasses.replace(field, name="again")
    assert again.fn is field.fn
    assert dual.per_node(field.fn) is field.fn
    scn = sc.build("hopf", {}).quotient
    assert dataclasses.replace(scn, name="x").lift is scn.lift


def test_a_branching_field_in_an_order_two_jet_keeps_each_nodes_arrays():
    field = ch.ChartField(BOX, ch.METRIC, branching)
    nodes = np.array([[0.3, 0.2], [1.4, 0.7], [1.1, 0.1], [0.6, 1.9],
                      [1.8, 0.4]])
    jet = ch.differentiate(field, batch_of(nodes), order=2)
    assert jet.value.shape == (5, 2, 2) and jet.d2.shape == (5, 2, 2, 2, 2)
    for k, node in enumerate(nodes):
        want = ch.differentiate(field, list(node), order=2)
        for got, ref in ((jet.value, want.value), (jet.d1, want.d1),
                         (jet.d2, want.d2)):
            assert np.array_equal(got[k], ref[0])     # one node


def test_a_domain_error_in_a_field_with_no_batch_form_names_its_node():
    def fn(c):      # compares a coordinate: no batch form
        return [dual.sqrt(c[0]) if c[1] > 0.0 else c[0]]
    field = ch.ChartField(ch.Chart("wide", (-2.0, -2.0), (2.0, 2.0)),
                          ch.SCALAR, fn)
    for order in (1, 2):
        with pytest.raises(EvaluationError,
                           match=r"at node 1 \(-0\.5, 0\.3\): sqrt"):
            ch.differentiate(field, batch_of([[0.5, 0.3], [-0.5, 0.3]]),
                             order=order)


def test_a_type_error_with_no_batch_point_propagates():
    def fails(c):
        raise TypeError("no batch form, no nodes")
    field = ch.ChartField(BOX, ch.SCALAR, fails)
    with pytest.raises(TypeError, match="no nodes"):
        field([0.5, 0.5])


def test_a_library_type_error_at_a_batch_point_propagates(monkeypatch):
    # without the fallback in dual.batched, a library bug is not rerun
    # point by point into a pass
    original = gm.bismut_curvature

    def batch_only_bug(sign, geo):
        if is_batch_point(geo.point):
            raise TypeError("a bug at batch points")
        return original(sign, geo)
    monkeypatch.setattr(gm, "bismut_curvature", batch_only_bug)
    monkeypatch.setattr(ck, "bismut_curvature", batch_only_bug)
    with pytest.raises(TypeError, match="bug at batch points"):
        ck.run_check(sc.build("hopf_flux", {}), "pair_symmetry", 42,
                     points=3)


def test_a_library_type_error_inside_a_library_field_propagates(
        monkeypatch):
    # the library's own fields (here the lifted fields inside thm63's jets)
    # are not wrapped, so no node-by-node rerun hides the bug
    original = qt.horizontal_lift

    def batch_only_bug(scn, p, sign, qvecs):
        if is_batch_point(p) and any(isinstance(x, dual.Dual) for x in p):
            raise TypeError("a bug at batch points inside a jet")
        return original(scn, p, sign, qvecs)
    monkeypatch.setattr(qt, "horizontal_lift", batch_only_bug)
    with pytest.raises(TypeError, match="bug at batch points"):
        ck.run_check(sc.build("hopf_flux", {}), "thm63", 42, points=5)


def test_a_library_field_runs_its_function_as_given():
    def fn(c):
        return [c[0], c[1]]
    field = ch.batch_field(BOX, ch.VECTOR, fn)
    assert field.fn is fn
    assert dataclasses.replace(field, name="again").fn is fn
    assert ch.ChartField(BOX, ch.VECTOR, fn).fn is fn


@pytest.mark.parametrize("size", [1, 2])
def test_node_values_stack_into_batch_leaves(size):
    def fn(c):
        x = c[0] * c[0] if c[0] > 1.0 else c[0] + 2.0
        return [x, dual.body(c[1])]
    point = batch_of(np.linspace([0.5, 0.5], [1.5, 1.5], size))
    got = ch.ChartField(BOX, ch.VECTOR, fn)(
        [dual.Dual(point[0], 1.0, dual.fresh_level()), point[1]])
    assert isinstance(got[1], Batch) and got[1].v.size == size
    leaves = [got[0].val, got[0].eps]
    assert all(isinstance(v, Batch) and v.v.size == size for v in leaves)


def _config(name):
    params = {"points": 3}
    if "order" in sc.ALLOWED_PARAMS.get(name, ()):
        params["order"] = 4
    if name == "s3xt2":
        return {"scenario": "custom", "factory": "ggred.scenarios:s3xt2",
                "parameters": params}
    return {"scenario": name, "parameters": params}


@pytest.mark.parametrize("name", NAMES)
def test_every_jet_pass_of_a_run_sees_a_batch_point(monkeypatch, name):
    passes, partial = [], dual.partial

    def spy(fn, point, axis):
        passes.append(is_batch_point(point))
        return partial(fn, point, axis)

    def no_fallback(x, k):
        raise AssertionError("a built-in field ran node by node")
    monkeypatch.setattr(dual, "partial", spy)
    monkeypatch.setattr(dual, "_at_node", no_fallback, raising=False)
    report = cli.run_scenario(cli.load_config(_config(name)))
    assert report["status"] == "pass"
    assert passes and all(passes)


def test_gk_reduce_evaluates_the_invariance_defects_once(monkeypatch):
    s = sc.build("product_qg", {})
    want = ck.run_check(s, "gk_reduce", 42, points=10)
    calls, original = [], qt.tau_projector

    def spy(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(qt, "tau_projector", spy)
    got = ck.run_check(s, "gk_reduce", 42, points=10)
    assert len(calls) == 2
    assert got == want
