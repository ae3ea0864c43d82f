"""Reference tests for the direct assembly, frame contraction, jet split,
Pfaffian recursion and random vector fields.

Each fast path is compared with the explicit construction it replaces,
written out here as the oracle: Grassmann words as products of
``G.generator`` elements, the frame contraction as a 5-operand ``einsum``,
the dual split as a per-entry rule, the Pfaffian as the recursion over
``np.ix_`` minors and the random field with numpy-scalar coefficients.
The last two perform the same float operations, so they must agree bit
for bit.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import localize as lz
from ggred.dual import Dual, sin
from ggred.grassmann import GrassmannElement as G
from ggred.grassmann import pfaffian
from ggred.scenarios import s3xt2

MODES = st.integers(min_value=1, max_value=4)


@st.composite
def arrays_with_zeros(draw, shape):
    """Float arrays of ``shape`` in which about a third are exact zeros."""
    size = int(np.prod(shape))
    entry = st.one_of(st.just(0.0),
                      st.floats(min_value=-8.0, max_value=8.0,
                                allow_nan=False, allow_subnormal=False))
    vals = draw(st.lists(entry, min_size=size, max_size=size))
    return np.array(vals, dtype=float).reshape(shape)


def word(ngen, gens):
    """theta_g0 theta_g1 ... as a product of generator elements."""
    out = G.scalar(ngen, 1.0)
    for g in gens:
        out = out * G.generator(ngen, g)
    return out


def same_element(fast, slow):
    """Equal coefficients, summed into the same order; ``fast`` is the
    one-node element of an array with a node axis of 1."""
    assert fast.n == slow.n
    assert [(m, c.v.shape, c.v[0]) for m, c in fast.coeffs.items()] == \
        [(m, (1,), c) for m, c in slow.coeffs.items()]


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES, MODES)
def test_curvature_quartic_equals_generator_products(data, mplus, mminus):
    rfr = data.draw(arrays_with_zeros((mplus, mplus, mminus, mminus)))
    ngen = mplus + mminus
    slow = G(ngen)
    for mu, nu, rho, sig in itertools.product(range(mplus), range(mplus),
                                              range(mminus), range(mminus)):
        c = rfr[mu, nu, rho, sig]
        if c == 0.0:
            continue
        prod = word(ngen, (mplus + rho, mu, mplus + sig, nu))
        slow = slow + 0.5 * c * prod
    same_element(lz.curvature_quartic(rfr[None], mplus, mminus), slow)


@settings(max_examples=40, deadline=None)
@given(st.data(), MODES)
def test_flux_square_quartic_equals_generator_products(data, m):
    dmat = data.draw(arrays_with_zeros((m, m, m, m)))
    ngen = 2 * m
    slow = G(ngen)
    for rr, mm, ss, nn in itertools.product(range(m), repeat=4):
        c = dmat[rr, mm, ss, nn]
        if c == 0.0:
            continue
        slow = slow + c * word(ngen, (m + rr, mm, m + ss, nn))
    same_element(lz._flux_square_quartic(dmat[None]), slow)


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES, st.sampled_from([(0, 1), (1, 0), (0, 0), (1, 1)]))
def test_quad_sum_equals_generator_products(data, m, chirality):
    coeffs = data.draw(arrays_with_zeros((m, m)))
    ngen = 2 * m
    first, second = (m * k for k in chirality)
    slow = G(ngen)
    for rr, cc in itertools.product(range(m), repeat=2):
        c = coeffs[rr, cc]
        if c == 0.0:
            continue
        slow = slow + c * word(ngen, (first + rr, second + cc))
    same_element(lz._quad_sum(ngen, m, coeffs[None], first, second),
                 slow)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=5),
       st.lists(MODES, min_size=4, max_size=4))
def test_frame_contract_equals_einsum(seed, n, rows):
    rng = np.random.default_rng(seed)
    arr = rng.normal(size=(n,) * 4) * (rng.random((n,) * 4) < 0.7)
    frames = [rng.normal(size=(m, n)) for m in rows]
    got = ch.frame_contract(arr, *frames)
    want = np.einsum("ijkl,ai,bj,ck,dl->abcd", arr, *frames)
    assert got.shape == tuple(rows)
    # only the summation order differs: bound the rounding by the sum of
    # the absolute terms, four stages of at most n terms each
    scale = np.einsum("ijkl,ai,bj,ck,dl->abcd", np.abs(arr),
                      *(np.abs(f) for f in frames))
    assert np.all(np.abs(got - want) <= 4 * n * np.finfo(float).eps * scale)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["float", "own", "own_nested", "other"]),
                min_size=1, max_size=12),
       st.booleans())
def test_split_separates_only_its_own_level(kinds, as_matrix):
    other, own = dual.fresh_level(), dual.fresh_level()
    entries, expect = [], []
    for i, kind in enumerate(kinds):
        x = float(i) + 0.5
        if kind == "float":
            e, want = x, (x, 0.0)
        elif kind == "own":
            e = Dual(x, -x, own)
            want = (x, -x)
        elif kind == "own_nested":
            e = Dual(Dual(x, 1.0, other), Dual(2.0, x, other), own)
            want = (e.val, e.eps)
        else:
            e = Dual(x, 3.0, other)
            want = (e, 0.0)
        entries.append(e)
        expect.append(want)
    shape = (1, len(kinds)) if as_matrix else (len(kinds),)
    vals, eps = dual._split(np.array(entries, dtype=object).reshape(shape),
                            own)
    assert vals.shape == eps.shape == shape
    for got_v, got_e, (want_v, want_e) in zip(vals.ravel(), eps.ravel(),
                                              expect):
        assert got_v is want_v or got_v == want_v
        assert got_e is want_e or got_e == want_e
        assert not (isinstance(got_v, Dual) and got_v.level == own)


def test_tighten_falls_back_only_for_duals():
    lvl = dual.fresh_level()
    assert dual.tighten([1, 2.5]).dtype == float
    kept = dual.tighten(np.array([Dual(1.0, 1.0, lvl), None], dtype=object))
    assert kept.dtype == object
    for bad in (np.array([object(), 1.0], dtype=object),
                np.array(["abc", 1.0], dtype=object)):
        with pytest.raises((TypeError, ValueError)):
            dual.tighten(bad)


def pf_ix_minors(a):
    """The Pfaffian by first-row expansion over ``np.ix_`` minors."""
    n = a.shape[0]
    if n == 2:
        return float(a[0, 1])
    total = 0.0
    rest = list(range(1, n))
    for idx, j in enumerate(rest):
        keep = [k for k in rest if k != j]
        sign = -1.0 if idx % 2 else 1.0
        total += sign * a[0, j] * pf_ix_minors(a[np.ix_(keep, keep)])
    return float(total)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_pfaffian_equals_ix_minor_recursion(n):
    rng = np.random.default_rng(n)
    for _ in range(25):
        a = rng.normal(size=(n, n))
        a = a - a.T
        got = pfaffian(a)
        assert type(got) is float
        assert got == pf_ix_minors(a)


def numpy_coefficient_field(chart, rng):
    """``checks.random_vector_field`` with numpy-scalar coefficients."""
    n = chart.dim
    c0 = rng.normal(size=n) * 0.5
    c1 = rng.normal(size=(n, n)) * 0.3

    def fn(c):
        return [c0[i] + sum(c1[i, j] * sin(c[j]) for j in range(n))
                for i in range(n)]
    return ch.ChartField(chart, ch.VECTOR, fn, name="random")


def same_bits(a, b):
    """Equal dual trees whose float leaves have equal bit patterns; a
    one-node Batch leaf is read as its node's float."""
    if isinstance(a, Dual) or isinstance(b, Dual):
        return isinstance(a, Dual) and isinstance(b, Dual) \
            and a.level == b.level and same_bits(a.val, b.val) \
            and same_bits(a.eps, b.eps)
    a, b = (x.v.item() if isinstance(x, dual.Batch) else x for x in (a, b))
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_vector_field_equals_numpy_coefficients(seed):
    chart = s3xt2({}).chart
    point = list(chart.sample(np.random.default_rng(seed), 1)[0])
    point[2] = Dual(point[2], 1.0, dual.fresh_level())
    got = ck.random_vector_field(chart, np.random.default_rng(seed))
    want = numpy_coefficient_field(chart, np.random.default_rng(seed))
    assert all(same_bits(a, b) for a, b in zip(got(point), want(point)))
    jg = ch.differentiate(got, point, order=1)
    jw = ch.differentiate(want, point, order=1)
    for a, b in ((jg.value, jw.value), (jg.d1, jw.d1)):
        assert a.shape == b.shape
        assert all(same_bits(x, y) for x, y in zip(a.ravel(), b.ravel()))
