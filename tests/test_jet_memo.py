"""The per-point jet memo in ``chart.differentiate``.

A memoized jet must equal a jet taken afresh bit for bit, so every test
compares against ``differentiate`` on the bare ``fn``, which is never
memoized.  The memo must also never outlive a check: running a check twice
repeats its results and its count of jet passes.
"""

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import scenarios as sc
from ggred.dual import Dual

SCENARIOS = sorted(sc.BUILTIN) + ["s3xt2"]


def build(name):
    return sc.s3xt2({}) if name == "s3xt2" else sc.build(name, {})


def fresh(field, point, order):
    return ch.differentiate(field.fn, point, order=order, chart=field.chart)


def assert_same_jet(got, want):
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.d1, want.d1)
    if want.d2 is None:
        assert got.d2 is None
    else:
        assert np.array_equal(got.d2, want.d2)


@pytest.fixture(autouse=True)
def empty_memo():
    ch.clear_jet_memo()
    yield
    ch.clear_jet_memo()


@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("first, second", [(2, 1), (1, 2)])
def test_memo_hits_equal_fresh_jets(name, first, second):
    s = build(name)
    points = s.chart.sample(np.random.default_rng(11), 2)
    for field in (s.ctx.g, s.ctx.H):
        for p in points:
            stored = ch.differentiate(field, p, order=first)
            assert_same_jet(stored, fresh(field, p, first))
            again = ch.differentiate(field, p, order=second)
            assert_same_jet(again, fresh(field, p, second))
            repeat = ch.differentiate(field, p, order=second)
            assert repeat.value is again.value      # served from the memo
        for p in points:                          # each point keeps its own
            assert_same_jet(ch.differentiate(field, p, order=1),
                            fresh(field, p, 1))
            assert_same_jet(ch.differentiate(field, p, order=2),
                            fresh(field, p, 2))


def test_memoized_arrays_are_read_only():
    s = sc.s3xt2({})
    p = s.chart.sample(np.random.default_rng(3), 1)[0]
    for order in (2, 1):
        jet = ch.differentiate(s.ctx.g, p, order=order)
        arrays = [jet.value, jet.d1] + ([jet.d2] if order == 2 else [])
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[(0,) * arr.ndim] = 1.0


def test_dual_points_and_bare_callables_are_not_stored():
    s = sc.build("hopf_flux", {})
    p = list(s.chart.sample(np.random.default_rng(5), 1)[0])
    ch.differentiate(s.ctx.g.fn, p, order=2, chart=s.chart)
    ch.differentiate(lambda c: s.ctx.H.fn(c), p, order=1)
    assert ch._jet_memo == {}
    p[1] = Dual(p[1], 1.0, dual.fresh_level())
    jet = ch.differentiate(s.ctx.g, p, order=2)
    assert ch._jet_memo == {}
    assert jet.value.flags.writeable


def test_memo_stays_bounded():
    s = sc.build("round_sphere", {})
    for p in s.chart.sample(np.random.default_rng(8), ch.JET_MEMO_SIZE + 5):
        ch.differentiate(s.ctx.g, p, order=1)
        assert len(ch._jet_memo) <= ch.JET_MEMO_SIZE


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


def test_unhashable_field_functions_are_memoized():
    class Squares:
        __hash__ = None

        def __call__(self, c):
            return [c[0] * c[0], c[0] * c[1]]

    box = ch.Chart("box", (0.0, 0.0), (1.0, 1.0))
    field = ch.ChartField(box, ch.VECTOR, Squares())
    first = ch.differentiate(field, (0.3, 0.6), order=2)
    again = ch.differentiate(field, (0.3, 0.6), order=1)
    assert again.d1 is first.d1
    assert_same_jet(again, fresh(field, (0.3, 0.6), 1))
