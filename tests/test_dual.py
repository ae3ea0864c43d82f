"""Dual-number engine: arithmetic, nesting, level isolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggred import dual
from ggred.dual import Dual, acos, atan2, body, cos, exp, log, sin, sqrt


def d1(fn, x):
    lvl = dual.fresh_level()
    out = fn(Dual(x, 1.0, lvl))
    return out.eps if isinstance(out, Dual) and out.level == lvl else 0.0


def test_basic_arithmetic():
    lvl = dual.fresh_level()
    x = Dual(2.0, 1.0, lvl)
    y = x * x + 3.0 * x - 1.0 / x
    assert np.isclose(body(y), 4.0 + 6.0 - 0.5)
    assert np.isclose(y.eps, 2 * 2.0 + 3.0 + 1.0 / 4.0)


def test_division_and_rdivision():
    assert np.isclose(d1(lambda x: 5.0 / x, 2.0), -5.0 / 4.0)
    assert np.isclose(d1(lambda x: x / 4.0, 2.0), 0.25)


def test_powers():
    assert np.isclose(d1(lambda x: x ** 3, 2.0), 12.0)
    assert np.isclose(d1(lambda x: x ** 0.5, 4.0), 0.25)
    assert np.isclose(d1(lambda x: 2.0 ** x, 3.0), 8.0 * np.log(2.0))


def test_transcendental_functions():
    x0 = 0.7
    cases = [(sin, np.cos(x0)), (cos, -np.sin(x0)), (exp, np.exp(x0)),
             (log, 1.0 / x0), (sqrt, 0.5 / np.sqrt(x0)),
             (acos, -1.0 / np.sqrt(1 - x0 ** 2))]
    for fn, expect in cases:
        assert np.isclose(d1(fn, x0), expect)


def test_atan2_partials():
    y0, x0 = 0.6, -1.1
    denom = x0 ** 2 + y0 ** 2
    assert np.isclose(d1(lambda y: atan2(y, x0), y0), x0 / denom)
    assert np.isclose(d1(lambda x: atan2(y0, x), x0), -y0 / denom)


def test_second_derivative_by_nesting():
    def second(fn, x):
        def outer(z):
            return d1_at_level(fn, z)
        return d1(outer, x)

    def d1_at_level(fn, z):
        lvl = dual.fresh_level()
        out = fn(Dual(z, 1.0, lvl))
        return out.eps if isinstance(out, Dual) and out.level == lvl else 0.0

    assert np.isclose(body(second(lambda x: x ** 4, 2.0)), 48.0)
    assert np.isclose(body(second(sin, 0.3)), -np.sin(0.3))


def test_level_isolation_no_perturbation_confusion():
    # d/dx [ x * d/dy (x y) ]  must be  2x at y-independent seed; a naive
    # single-tag implementation confuses the two infinitesimals
    def inner(x):
        lvl = dual.fresh_level()
        y = Dual(3.0, 1.0, lvl)
        prod = x * y
        return prod.eps if isinstance(prod, Dual) and prod.level == lvl \
            else 0.0

    def outer(x):
        return x * inner(x)
    assert np.isclose(d1(outer, 5.0), 10.0)


def test_mixed_level_arithmetic_orders():
    l1 = dual.fresh_level()
    l2 = dual.fresh_level()
    a = Dual(1.0, 1.0, l1)
    b = Dual(2.0, 1.0, l2)
    prod = a * b
    # outermost level is l2; its eps is a itself
    assert prod.level == l2
    assert body(prod) == 2.0
    assert body(prod.eps) == 1.0
    same = b * a
    assert same.level == l2 and body(same.eps) == 1.0


def test_numpy_array_interop():
    lvl = dual.fresh_level()
    x = Dual(2.0, 1.0, lvl)
    arr = np.array([1.0, 2.0, 3.0])
    out = x * arr
    assert isinstance(out, np.ndarray)
    assert all(isinstance(e, Dual) for e in out)
    out2 = arr * x
    assert np.allclose([body(e) for e in out2], [2.0, 4.0, 6.0])


def test_comparisons_use_body():
    lvl = dual.fresh_level()
    x = Dual(2.0, 100.0, lvl)
    assert x > 1.5
    assert x <= 2.0
    assert abs(Dual(-2.0, 1.0, lvl)) > 1.0


def test_partial_extracts_correct_axis():
    def fn(c):
        return [c[0] * c[1], sin(c[1])]
    val, der = dual.partial(fn, [2.0, 0.5], 1)
    assert np.allclose(val, [1.0, np.sin(0.5)])
    assert np.allclose(der, [2.0, np.cos(0.5)])


def test_tighten_preserves_duals():
    lvl = dual.fresh_level()
    arr = np.asarray([Dual(1.0, 2.0, lvl), 3.0], dtype=object)
    out = dual.tighten(arr)
    assert out.dtype == object
    plain = dual.tighten(np.asarray([1.0, 2.0], dtype=object))
    assert plain.dtype == float


@pytest.mark.parametrize("arr, size", [
    ([1.0, None], 0), ([1.0, None], 2), ([dual.Batch([1.0, 2.0]), None], 2)])
def test_tighten_reads_no_none_entry_as_nan(arr, size):
    with pytest.raises(TypeError, match="None"):
        dual.tighten(np.array(arr, dtype=object), size)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0,
                 allow_nan=False, allow_infinity=False))
def test_derivative_of_polynomial_hypothesis(x0):
    # p(x) = x^3 - 2x + 1, p'(x) = 3x^2 - 2
    der = d1(lambda x: x * x * x - 2.0 * x + 1.0, x0)
    assert np.isclose(der, 3.0 * x0 ** 2 - 2.0, atol=1e-10)
