"""Grassmann algebra, Berezin integrals, Pfaffians."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggred.errors import (AsymmetryError, OddDimensionError,
                          UnknownGeneratorError)
from ggred.grassmann import (GrassmannElement as G, berezin_integral,
                             fermionic_gaussian_berezin, pfaffian,
                             quadratic_form)


def gens(n):
    return [G.generator(n, i) for i in range(n)]


def random_element(n, rng):
    return G(n, {m: rng.normal() for m in range(1 << n)})


def test_anticommutation_and_square_zero():
    t = gens(4)
    for i in range(4):
        assert (t[i] * t[i]).max_abs() == 0.0
        for j in range(4):
            assert (t[i] * t[j] + t[j] * t[i]).max_abs() == 0.0


def test_associativity_random():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b, c = (random_element(4, rng) for _ in range(3))
        assert ((a * b) * c - a * (b * c)).max_abs() < 1e-12


def test_grading_respected():
    t = gens(4)
    even = t[0] * t[1] + 3.0
    odd = t[2] + t[0] * t[1] * t[3]
    assert even.is_even() and not even.is_odd()
    assert odd.is_odd() and not odd.is_even()
    assert (even * odd).is_odd()
    assert (odd * odd).is_even()


def test_generator_cap():
    with pytest.raises(ValueError):
        G(17)
    with pytest.raises(UnknownGeneratorError):
        G.generator(4, 7)


# -- Berezin convention ---------------------------------------------------

def test_single_generator_integral():
    t = gens(2)
    assert berezin_integral(t[0], [0]).body == 1.0
    assert berezin_integral(G.scalar(2, 1.0), [0]).body == 0.0


def test_pair_measure_convention():
    # with theta_plus = generator 0 and theta_minus = generator 1, the
    # iterated integral of theta_minus theta_plus over [plus, minus] is +1
    t = gens(2)
    assert berezin_integral(t[1] * t[0], [0, 1]).body == 1.0
    assert berezin_integral(t[0] * t[1], [0, 1]).body == -1.0


def test_unknown_generator_rejected():
    t = gens(2)
    with pytest.raises(UnknownGeneratorError):
        berezin_integral(t[0], [5])
    with pytest.raises(UnknownGeneratorError):
        berezin_integral(t[0], [0, 0])


def test_partial_integration_leaves_element():
    t = gens(3)
    e = t[0] * t[1] * t[2]
    out = berezin_integral(e, [2])
    assert out == t[0] * t[1]


# -- Pfaffians ------------------------------------------------------------

def test_pfaffian_2x2():
    a = np.array([[0.0, 2.5], [-2.5, 0.0]])
    assert np.isclose(pfaffian(a), 2.5)


def test_pfaffian_block_diagonal():
    b = np.zeros((4, 4))
    b[0, 1], b[1, 0] = 3.0, -3.0
    b[2, 3], b[3, 2] = 4.0, -4.0
    assert np.isclose(pfaffian(b), 12.0)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(1)
    for n in (2, 4, 6, 8):
        for _ in range(20):
            a = rng.normal(size=(n, n))
            a = a - a.T
            det = np.linalg.det(a)
            assert abs(pfaffian(a) ** 2 - det) <= 1e-10 * max(abs(det), 1.0)


def test_pfaffian_spectral_path():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(10, 10))
    a = a - a.T
    det = np.linalg.det(a)
    assert abs(pfaffian(a) ** 2 - det) <= 1e-8 * abs(det)


def test_pfaffian_errors():
    with pytest.raises(OddDimensionError):
        pfaffian(np.zeros((3, 3)))
    with pytest.raises(AsymmetryError):
        pfaffian(np.eye(4))


def test_gaussian_through_berezin_engine():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        a = rng.normal(size=(n, n))
        a = a - a.T
        assert np.isclose(fermionic_gaussian_berezin(a), pfaffian(a),
                          atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.sampled_from([2, 4, 6]))
def test_pfaffian_property_hypothesis(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = a - a.T
    det = np.linalg.det(a)
    assert abs(pfaffian(a) ** 2 - det) <= 1e-10 * max(abs(det), 1.0)


def test_exp_of_quadratic_terminates():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    a = a - a.T
    q = quadratic_form(6, a)
    e = q.exp()
    assert max(e.degrees()) <= 6
    assert np.isclose(e.body, 1.0)


def test_real_scalar_operands():
    e = G.generator(3, 0) * G.generator(3, 2) + 2.0
    assert e * np.array(0.5) == e * 0.5
    assert np.array(0.5) * e == e * 0.5
    assert e + np.array(1.0) == e + 1.0
    assert e - np.array(1.0) == e - 1.0
    assert e * np.float64(3.0) == e * 3 == 3.0 * e
    for bad in (np.array([1.0, 2.0]), 1j, "x", None):
        with pytest.raises(TypeError):
            e * bad
        with pytest.raises(TypeError):
            e + bad


def test_underflowing_scalar_product_is_pruned():
    t = G.generator(2, 0)
    tiny = (t * 1e-200) * 1e-200
    assert tiny.coeffs == {}
    assert tiny == G(2)
    assert tiny.is_even()
    mixed = (G.scalar(2, 1.0) + t * 1e-200) * 1e-200
    assert mixed.coeffs == {0: 1e-200}
