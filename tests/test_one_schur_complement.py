"""One Schur complement per elimination.

``AuxiliaryPolynomial.eliminate`` multiplies its block inverse into
[L_W | Q_WK] once and reads the solution, the constant and the new rows
from that product.  Every Grassmann coefficient must keep its bits and its
key order, so each test compares ``list(e.coeffs.items())`` against
``reference_eliminate``: the routine that formed inv(Q_WW) L_W and
inv(Q_WW) Q_WK twice each, copied here with its list helpers.

The frame-data and closed-form tests pin work that is no longer done: the
order-1 jet of g that the Christoffel symbols took before the order-2 jet
of the torsion curvature, and the mixed-multiplier rows that the closed
form rebuilt for every a.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ggred import chart as ch
from ggred import checks as ck
from ggred import dual
from ggred import localize as lz
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.dual import Batch
from ggred.errors import SingularBodyError
from ggred.grassmann import GrassmannElement as G
from ggred.scenarios import hopf_flux, product_qg, s3xt2, sphere_in_flat


# -- the elimination this replaces, kept as the bit oracle ---------------------

def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        if a.coeffs and b.coeffs:
            acc = a * b if acc is None else acc + a * b
    return G(u[0].n) if acc is None else acc


def _mul(a, b):
    cols = list(zip(*b))
    return [[_dot(row, col) for col in cols] for row in a]


def _add(a, b):
    return [[a[i][j] + b[i][j] for j in range(len(a[0]))]
            for i in range(len(a))]


def _scale(a, s):
    return [[e * s for e in row] for row in a]


def _matvec(a, v):
    return [_dot(row, v) for row in a]


def reference_eliminate(self, group, steps=None):
    """The two-product elimination; ``steps`` collects its series length."""
    group = list(group)
    keep = [v for v in self.variables if v not in group]
    nw = len(group)
    qww = [[self.q_entry(a, b) for b in group] for a in group]
    # float bodies, or those of a one-node frame's Batch coefficients
    body = dual.tighten([[qww[i][j].body for j in range(nw)]
                         for i in range(nw)], 1)[0]
    body_inv = ch.inverse(body, SingularBodyError,
                          f"block body of group {group}")
    nil = [[qww[i][j] - G.scalar(self.ngen, body[i, j])
            for j in range(nw)] for i in range(nw)]
    binv = [[G.scalar(self.ngen, body_inv[i, j]) for j in range(nw)]
            for i in range(nw)]
    minus_binv_nil = _mul(_scale(binv, -1.0), nil)
    inv = binv
    term = binv
    added = 0
    for _ in range(self.ngen // 2 + 1):
        term = _mul(minus_binv_nil, term)
        if all(e.max_abs() == 0.0 for row in term for e in row):
            break
        inv = _add(inv, term)
        added += 1
    if steps is not None:
        steps.append(added)

    lw = [self.l_entry(a) for a in group]
    qwk = [[self.q_entry(a, k) for k in keep] for a in group]
    sol_const = _matvec(_scale(inv, -1.0), lw)
    sol_lin = _mul(_scale(inv, -1.0), qwk) if keep else [[] for _ in group]

    out = lz.AuxiliaryPolynomial(self.ngen, keep)
    out.const = self.const - 0.5 * _dot(lw, _matvec(inv, lw))
    invl = _matvec(inv, lw)
    for k in keep:
        new_l = self.l_entry(k) - _dot([self.q_entry(k, w) for w in group],
                                       invl)
        if new_l.max_abs():
            out.lin[k] = new_l
    qkw_inv_qwk = _mul([[self.q_entry(k, w) for w in group] for k in keep],
                       _mul(inv, qwk)) if keep else []
    for i, ka in enumerate(keep):
        for j, kb in enumerate(keep):
            val = self.q_entry(ka, kb)
            if keep:
                val = val - qkw_inv_qwk[i][j]
            if val.max_abs():
                out.quad[(ka, kb)] = val
    solution = {w: (sol_const[i],
                    {keep[j]: sol_lin[i][j] for j in range(len(keep))})
                for i, w in enumerate(group)}
    return out, solution


def bits(e):
    """Keys and values in order; a one-node Batch value as its float."""
    return [(m, np.ravel(c.v if isinstance(c, Batch) else c).tolist())
            for m, c in e.coeffs.items()]


def assert_same_elimination(got, want):
    (out, sol), (ref, ref_sol) = got, want
    assert out.variables == ref.variables
    assert bits(out.const) == bits(ref.const)
    for new, old in ((out.lin, ref.lin), (out.quad, ref.quad)):
        assert list(new) == list(old)
        for key in old:
            assert bits(new[key]) == bits(old[key])
    assert list(sol) == list(ref_sol)
    for w, (const, lin) in ref_sol.items():
        assert bits(sol[w][0]) == bits(const)
        assert list(sol[w][1]) == list(lin)
        for k, e in lin.items():
            assert bits(sol[w][1][k]) == bits(e)


# -- random polynomials -----------------------------------------------------------

def even_element(ngen, rng, density, body=0.0):
    words = [m for m in range(1, 1 << ngen) if not m.bit_count() % 2]
    terms = {m: rng.normal() for m in words if rng.random() < density}
    if body:
        terms[0] = body
    return G(ngen, terms)


def random_polynomial(ngen, nw, nk, rng):
    """Eliminated block W = w0.., kept K = k0..; every W diagonal entry
    carries a dense nilpotent part, so the series runs ngen // 2 steps."""
    group = [f"w{i}" for i in range(nw)]
    keep = [f"k{i}" for i in range(nk)]
    names = group + keep
    poly = lz.AuxiliaryPolynomial(ngen, names)
    for i, a in enumerate(names):
        for b in names[i:]:
            if a == b and a in group:
                poly.add_quad(a, a, even_element(ngen, rng, 1.0,
                                                 body=2.0 + rng.random()))
            elif rng.random() < 0.7:
                poly.add_quad(a, b, even_element(ngen, rng, 0.3,
                                                 body=0.3 * rng.normal()))
        if rng.random() < 0.8:
            poly.add_lin(a, even_element(ngen, rng, 0.4, body=rng.normal()))
    poly.add_const(even_element(ngen, rng, 0.5, body=rng.normal()))
    return poly, group


@settings(max_examples=40, deadline=None)
@example(8, 3, 3, 0)
@given(st.sampled_from([2, 4, 6, 8]), st.integers(1, 3), st.integers(0, 3),
       st.integers(0, 2 ** 32 - 1))
def test_random_elimination_keeps_every_bit(ngen, nw, nk, seed):
    poly, group = random_polynomial(ngen, nw, nk,
                                    np.random.default_rng(seed))
    steps = []
    want = reference_eliminate(poly, group, steps)
    assert steps == [ngen // 2]        # at least two steps from ngen = 4 on
    assert_same_elimination(poly.eliminate(group), want)


# -- the chains of the localization checks ------------------------------------------

QUOTIENTS = {"hopf_flux": lambda: hopf_flux({}),
             "product_qg": lambda: product_qg({}),
             "s3xt2": lambda: s3xt2({})}


def quotient_frame_at(name, seed=5):
    scn = QUOTIENTS[name]().quotient
    q = scn.quotient.sample(np.random.default_rng(seed), 1)[0]
    return lz.point_frame_quotient(qt.LiftedPoint(scn, q))   # one node


def section_frame_at(seed=5):
    scn = sphere_in_flat({"c": 0.5}).section
    u = scn.nchart.sample(np.random.default_rng(seed), 1)[0]
    return lz.point_frame_section(sm.LocusPoint(scn, u))


def chain(pf, model):
    if model == "quotient":
        return lz.build_quotient_action(pf), [
            [f"pp{a}" for a in range(pf.s)] + [f"mm{a}" for a in range(pf.s)],
            [f"F{i}" for i in range(pf.n)],
            [f"pm{a}" for a in range(pf.s)]]
    return lz.build_section_action(pf), [[f"F{i}" for i in range(pf.n)],
                                         [f"W{al}" for al in range(pf.r)]]


@pytest.mark.parametrize("name", sorted(QUOTIENTS) + ["sphere_in_flat"])
def test_chain_elimination_keeps_every_bit(name):
    if name == "sphere_in_flat":
        pf, model = section_frame_at(), "section"
    else:
        pf, model = quotient_frame_at(name), "quotient"
    poly, groups = chain(pf, model)
    for group in groups:
        got = poly.eliminate(group)
        assert_same_elimination(got, reference_eliminate(poly, group))
        poly = got[0]
    assert not poly.variables


# -- Grassmann products per chain ------------------------------------------------

def count_products(monkeypatch, pf):
    counts = {"element": 0, "scalar": 0}
    mul = G.__mul__

    def counted(self, other):
        counts["element" if isinstance(other, G) else "scalar"] += 1
        return mul(self, other)
    with monkeypatch.context() as m:
        m.setattr(G, "__mul__", counted)
        m.setattr(G, "__rmul__", counted)
        lz.localize_model(pf, "quotient")
    return counts


@pytest.mark.parametrize("name", ["hopf_flux", "s3xt2"])
def test_chain_makes_fewer_products(monkeypatch, name):
    pf = quotient_frame_at(name)
    now = count_products(monkeypatch, pf)
    monkeypatch.setattr(lz.AuxiliaryPolynomial, "eliminate",
                        reference_eliminate)
    before = count_products(monkeypatch, pf)
    assert now["element"] < before["element"]
    assert now["scalar"] < before["scalar"]


# -- frame data: one order-2 jet of g answers the Christoffel symbols --------

def jets_of_g(monkeypatch, build, g):
    """Run ``build``; return the order of each jet of g it takes."""
    orders, differentiate = [], ch.differentiate

    def recorded(f, point, order=1, chart=None):
        if getattr(f, "fn", None) is g.fn:
            orders.append(order)
        return differentiate(f, point, order=order, chart=chart)
    monkeypatch.setattr(ch, "differentiate", recorded)
    build()
    return orders


def test_point_frame_quotient_takes_no_order1_jet_of_g(monkeypatch):
    scn = s3xt2({}).quotient
    q = scn.quotient.sample(np.random.default_rng(5), 1)[0]
    assert jets_of_g(monkeypatch,
                     lambda: lz.point_frame_quotient(qt.LiftedPoint(scn, q)),
                     scn.ctx.g) == [2]


def test_point_frame_section_takes_no_order1_jet_of_g(monkeypatch):
    scn = sphere_in_flat({"c": 0.5}).section
    u = scn.nchart.sample(np.random.default_rng(5), 1)[0]
    assert jets_of_g(monkeypatch,
                     lambda: lz.point_frame_section(sm.LocusPoint(scn, u)),
                     scn.ctx.g) == [2]


# -- the closed form builds each b's row once -------------------------------------

def test_closed_form_builds_each_row_once(monkeypatch):
    pf = quotient_frame_at("product_qg")
    assert pf.s == 2
    calls = [0]
    quad_sum = lz._quad_sum

    def counted(*args):
        calls[0] += 1
        return quad_sum(*args)
    monkeypatch.setattr(lz, "_quad_sum", counted)
    closed = ck.mixed_multiplier_closed_form(pf)
    assert calls[0] == 3 * pf.s
    _, details = lz.localize_model(pf, "quotient")
    for a in range(pf.s):
        assert (closed[a] - details[f"pm{a}"][0]).max_abs() < 1e-12
