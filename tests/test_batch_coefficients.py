"""Grassmann elements with ``dual.Batch`` coefficients: one element for all
nodes of a batch point.

A word is stored while its coefficient is nonzero at some node, so a node
can hold an exact zero (+0.0 or -0.0) in a word that its own run prunes.
Adding an exact zero is exact, and a product sums its terms in a fixed
order of the words, so through ``*``, ``+``, ``exp``, ``berezin_integral`` and
``AuxiliaryPolynomial.eliminate`` each node must keep the bits of its own
run with float coefficients.  A NaN stays at its node.
"""

import math

import numpy as np
import pytest

from ggred import localize as lz
from ggred.dual import Batch
from ggred.grassmann import GrassmannElement as G
from ggred.grassmann import berezin_integral

NGEN = 6
EVEN = np.array([m for m in range(1 << NGEN) if not m.bit_count() % 2])
NODES = 3


def table(seed, body=0.0):
    """Terms of random even words, each word twice and in no particular
    order; node 1 of 3 holds exact zeros (half of them -0.0) in about half
    the terms, so its words are first stored at other places than the
    batch's."""
    rng = np.random.default_rng(seed)
    masks = np.concatenate([rng.permutation(EVEN), rng.permutation(EVEN)])
    vals = rng.normal(size=(len(masks), NODES))
    zero = rng.random(len(masks)) < 0.5
    vals[zero, 1] = np.where(rng.random(zero.sum()) < 0.5, 0.0, -0.0)
    vals[masks == 0] += body
    return masks, vals


def batch(terms):
    masks, vals = terms
    return G.from_terms(NGEN, masks.tolist(), [Batch(v) for v in vals])


def node(terms, k):
    """Node k's own run: float coefficients, its exact zeros pruned."""
    masks, vals = terms
    return G.from_terms(NGEN, masks.tolist(), vals[:, k].tolist())


def bits(e, k=None):
    """The nonzero coefficients as {mask: hex}, at node k of a batch."""
    out = {}
    for m, c in e.coeffs.items():
        x = float(c.v[k]) if isinstance(c, Batch) else c
        if x != 0.0:
            out[m] = x.hex()
    return out


@pytest.mark.parametrize("seed", range(4))
def test_products_and_sums_keep_each_nodes_bits(seed):
    ta, tb = table(seed), table(seed + 100)
    a, b = batch(ta), batch(tb)
    assert all(isinstance(c, Batch) for c in a.coeffs.values())
    assert any(c.v[1] == 0.0 for c in a.coeffs.values())
    for k in range(NODES):
        ak, bk = node(ta, k), node(tb, k)
        assert bits(a * b, k) == bits(ak * bk)
        assert bits((a * b) * a, k) == bits((ak * bk) * ak)
        assert bits(a + b, k) == bits(ak + bk)
        assert bits(a - a * b, k) == bits(ak - ak * bk)
        assert bits(2.5 * a, k) == bits(2.5 * ak)


@pytest.mark.parametrize("seed", range(4))
def test_exp_and_berezin_integral_keep_each_nodes_bits(seed):
    terms = table(seed, body=0.5)
    e = batch(terms).exp()
    measure = [5, 2, 0, 3, 1, 4]
    for k in range(NODES):
        ek = node(terms, k).exp()
        assert bits(e, k) == bits(ek)
        assert bits(berezin_integral(e, measure), k) == \
            bits(berezin_integral(ek, measure))


def polynomial(coeff):
    """Three unknowns, two eliminated; ``coeff(i, body)`` gives the i-th
    coefficient.  The block body is diagonally dominant at every node."""
    poly = lz.AuxiliaryPolynomial(NGEN, ["x", "y", "z"])
    poly.add_quad("x", "x", coeff(0, 3.0))
    poly.add_quad("y", "y", coeff(1, 3.0))
    poly.add_quad("x", "y", coeff(2, 0.0))
    poly.add_quad("x", "z", coeff(3, 0.0))
    poly.add_quad("z", "z", coeff(4, 1.0))
    poly.add_lin("x", coeff(5, 0.0))
    poly.add_lin("z", coeff(6, 0.0))
    poly.add_const(coeff(7, 0.0))
    return poly


@pytest.mark.parametrize("seed", range(4))
def test_elimination_keeps_each_nodes_bits(seed):
    tables = {}

    def terms(i, body):
        if i not in tables:
            tables[i] = table(1000 * seed + i, body=body)
        return tables[i]

    out, sol = polynomial(lambda i, body: batch(terms(i, body))).eliminate(
        ["x", "y"])
    for k in range(NODES):
        want, want_sol = polynomial(
            lambda i, body: node(terms(i, body), k)).eliminate(["x", "y"])
        assert bits(out.const, k) == bits(want.const)
        assert bits(out.q_entry("z", "z"), k) == \
            bits(want.q_entry("z", "z"))
        assert bits(out.l_entry("z"), k) == bits(want.l_entry("z"))
        for w in ("x", "y"):
            assert bits(sol[w][0], k) == bits(want_sol[w][0])
            assert bits(sol[w][1]["z"], k) == bits(want_sol[w][1]["z"])


def test_a_nan_at_one_node_stays_at_that_node():
    ta, tb = table(7), table(8)
    ta[1][3, 2] = math.nan
    a, b = batch(ta), batch(tb)
    for e in (a, a * b, a + b, (a * b).exp()):
        assert np.isnan(e.max_abs()).tolist() == [False, False, True]
    assert np.isnan(node(ta, 2).max_abs())
    assert not np.isnan(node(ta, 1).max_abs())


def test_a_word_is_dropped_only_where_it_is_zero_at_every_node():
    e = G.from_terms(NGEN, [3, 5, 6, 9, 3], [
        Batch([1.0, -0.0]), Batch([2.0, 1.0]), Batch([0.0, 3.0]),
        Batch([4.0, -0.0]), Batch([-1.0, 0.0])])
    assert list(e.coeffs) == [5, 6, 9]
    assert e.max_abs().tolist() == [4.0, 3.0]
    assert (e * G.scalar(NGEN, Batch([0.0, -0.0]))).coeffs == {}


def test_inf_times_a_word_zero_at_its_node_is_nan_there_only():
    # the one place a node parts from its own run, which never forms the
    # product of a word it does not hold
    a = G(NGEN, {0b11: Batch([math.inf, 1.0])})
    b = G(NGEN, {0b1100: Batch([0.0, 2.0])})
    with np.errstate(invalid="ignore"):
        prod = (a * b).coeffs[0b1111].v
    assert math.isnan(prod[0]) and prod[1] == 2.0
    assert (G(NGEN, {0b11: math.inf}) * G(NGEN)).coeffs == {}
