"""Array identities in place of index loops.

Each reduction routine below builds an array that it once built entry by
entry, generator by generator or term by term.  The loop each replaced is
copied here as the bit oracle, and the two are compared with
``np.array_equal`` (object arrays read through ``dual.tighten``).  The one
exception is the vertical derivative D = grad^- V^-, which is read from
held jets by the implicit rule, not from a jet of V^-: it is compared with
the jet of ``v_pm_values`` to within 1e-12 max|D|.

The built-in scenarios have s = 1 wherever xi is nonzero, and r = 1, so a
transposed stacking axis cannot show on them.  The cases of
``reduction_cases`` add a second generator with a nonzero 1-form (s = 2)
and two nonlinear constraints (r = 2), and the s3xs1_gk flux is read at float, ``Dual`` and ``Batch``
coordinates.
"""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import cli
from ggred import dual
from ggred import gk as gkmod
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.chart import VECTOR, ChartField
from ggred.dual import sin
from ggred.errors import EvaluationError, TangencyError
from ggred.genmetric import Geometry, bismut_connection_coeffs
from reduction_cases import two_constraint_section, two_generator_action
from point_routines import (bracket_at, frames_at, matrices_at, omega_at,
                            projector_at, riemann_of)


QUOTIENTS = [sc.s3xt2({}).quotient, two_generator_action()]
QUOTIENT_IDS = ["s3xt2", "two_generators"]


def _qpoint(scn, seed):
    return scn.quotient.sample(np.random.default_rng(seed), 1)[0]


def _same(a, b):
    a, b = dual.tighten(a), dual.tighten(b)
    return a.shape == b.shape and np.array_equal(a, b)


# -- stacked covariant derivatives ---------------------------------------------

@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_point_frame_quotient_keeps_the_per_generator_loop(scn):
    pf = lz.point_frame_quotient(qt.LiftedPoint(scn, _qpoint(scn, 5)))
    p, ea = list(pf.point), scn.ea
    jet = ch.differentiate(
        lambda c: [[f(c) for f in ea.V], [f(c) for f in ea.xi]], p,
        order=1, chart=scn.ctx.chart)
    # a point is a one-node batch: node 0 of each array
    vv, xv = jet.value[0]
    d1, gamma, g = jet.d1[0], pf.gamma[0], pf.g[0]
    dxi, dvl = [], []
    for a in range(ea.s):
        dxi.append(d1[:, 1, a] - np.einsum("mki,m->ki", gamma, xv[a]))
        dv = d1[:, 0, a] + np.einsum("ikm,m->ki", gamma, vv[a])
        dvl.append(np.einsum("ki,im->km", dv, g))
    assert np.max(np.abs(dxi[-1])) > 0.01 and np.max(np.abs(dvl[-1])) > 0.01
    assert _same(pf.dxi_cov[0], np.array(dxi))
    assert _same(pf.dv_cov_low[0], np.array(dvl))
    assert pf.dxi_cov.flags.c_contiguous and pf.dv_cov_low.flags.c_contiguous


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_minus_derivative_matrix_keeps_the_per_generator_loop(scn):
    p = scn.lift(_qpoint(scn, 4))
    ea, ctx = scn.ea, scn.ctx
    coeffs = bismut_connection_coeffs(-1, Geometry(ctx, p))[0]
    jet = ch.differentiate(lambda c: qt.v_pm_values(ea, ctx, c, -1), p,
                           order=1, chart=ctx.chart)
    d1, value = jet.d1[0], jet.value[0]
    old = np.array([d1[:, a] + np.einsum("ijk,k->ji", coeffs, value[a])
                    for a in range(ea.s)])
    assert np.max(np.abs(old[-1])) > 0.05
    got = qt._minus_derivative_matrix(Geometry(ctx, p),
                                      qt.action_jet(ea, ctx, p))
    assert np.max(np.abs(got[0] - old)) <= 1e-12 * np.max(np.abs(old))


@pytest.mark.parametrize("sign", [+1, -1])
def test_nabla_pm_dsigma_keeps_the_per_constraint_loop(sign):
    scn = two_constraint_section()
    p = [0.3, -0.5, 0.7]
    coeffs = bismut_connection_coeffs(sign, Geometry(scn.ctx, p))[0]
    jet = scn.sd.jet(p, order=2)
    d1, d2 = jet.d1[0], jet.d2[0]
    grads = np.ascontiguousarray(d1.T)
    old = np.array([d2[:, :, al] - np.einsum("lij,l->ij", coeffs, grad)
                    for al, grad in enumerate(grads)])
    assert np.max(np.abs(old[1] - old[0])) > 0.05
    assert _same(sm.nabla_pm_dsigma(scn.sd.jet(p, order=2), sign,
                                   Geometry(scn.ctx, p))[0], old)


# -- loops that went ------------------------------------------------------------

def _old_omega_curvature(ea, ctx, sign, point, frame):
    frame = np.asarray(frame, dtype=float)[0]
    kinv = matrices_at(ea, ctx, point).Kinv[0]
    dxi_pm = qt.d_constraint_rows(qt.action_jet(ea, ctx, point))[
        0 if sign > 0 else 1][0]
    if sign > 0:
        mix = np.einsum("ba,bij->aij", kinv, dxi_pm)
    else:
        mix = np.einsum("ab,bij->aij", kinv, dxi_pm)
    return np.einsum("aij,pi,qj->apq", mix, frame, frame)


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
@pytest.mark.parametrize("sign", [+1, -1])
def test_omega_curvature_keeps_the_two_branch_sign(scn, sign):
    p = scn.lift(_qpoint(scn, 6))
    frame = frames_at(scn.ea, scn.ctx, p)[0 if sign > 0 else 1]
    from_xi, _ = omega_at(scn.ea, scn.ctx, sign, p, frame)
    old = _old_omega_curvature(scn.ea, scn.ctx, sign, p, frame)
    assert np.max(np.abs(old)) > 0.05
    assert _same(from_xi[0], old)


def test_two_generator_k_is_not_symmetric():
    """Else K^{ba} and K^{ab} agree and the sign branch cannot show."""
    scn = QUOTIENTS[1]
    kinv = matrices_at(scn.ea, scn.ctx, scn.lift(_qpoint(scn, 6))).Kinv[0]
    assert np.max(np.abs(kinv - kinv.T)) > 0.05


def _old_oneill(scn, qpoint):
    ea, ctx = scn.ea, scn.ctx
    basis = qt.quotient_frame(scn, qpoint)[0]
    m = basis.shape[0]
    p = scn.lift(qpoint)
    gmat = ctx.metric_at(p)[0]
    vvals = np.array([np.asarray(f(p), dtype=float) for f in ea.V])
    graminv = np.linalg.inv(vvals @ gmat @ vvals.T)
    lifts = qt.horizontal_lift(scn, p, +1, basis)
    qfields = [ChartField(scn.quotient, VECTOR,
                          lambda c, w=basis[i]: np.array(w), name=f"E{i}")
               for i in range(m)]
    lfields = [qt.lifted_field(scn, qf, +1) for qf in qfields]

    def vert(w):
        return np.einsum("ai,ab,bj,j->i", vvals, graminv, vvals @ gmat, w)

    avals = np.empty((m, m), dtype=object)
    for i in range(m):
        for j in range(m):
            avals[i, j] = bracket_at(lfields[i], lfields[j], p)[0] \
                if i < j else None
    amat = np.zeros((m, m, scn.ambient_dim))
    for i in range(m):
        for j in range(i + 1, m):
            a = 0.5 * vert(np.asarray(avals[i, j], dtype=float))
            amat[i, j] = a
            amat[j, i] = -a
    rarr = riemann_of(ch.differentiate(ctx.g, p, order=2))[0]
    base = np.swapaxes(ch.frame_contract(rarr, lifts, lifts, lifts, lifts),
                       2, 3)
    inner = np.einsum("abi,ij,cdj->abcd", amat, gmat, amat)
    return (base - 2.0 * inner + np.einsum("nrms->mnrs", inner)
            - np.einsum("mrns->mnrs", inner))


@pytest.mark.parametrize("scn", [sc.hopf({}).quotient,
                                 sc.product_qg({}).quotient,
                                 QUOTIENTS[1]],
                         ids=["hopf", "product_qg", "two_generators_m3"])
def test_oneill_keeps_the_bracket_table(scn):
    q = _qpoint(scn, 8)
    got = qt.oneill_curvature(scn, q, qt.quotient_frame(scn, q))
    assert _same(got[0], _old_oneill(scn, q))


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_horizontal_frames_keep_the_unit_vector_products(scn):
    p = scn.lift(_qpoint(scn, 9))
    gmat = scn.ctx.metric_at(p)
    n = gmat.shape[-1]
    for sign, got in zip((+1, -1), frames_at(scn.ea, scn.ctx, p)):
        proj = projector_at(scn.ea, scn.ctx, p, sign)[0]
        old = ch.orthonormal_frame([proj @ e for e in np.eye(n)], gmat,
                                   n - scn.ea.s, "tau frame")
        assert _same(got, old)


def _old_reduced_j_field(j, scn, sign):
    m = scn.reduced_dim

    def fn(coords):
        p = scn.lift(coords)
        lifts = qt.horizontal_lift(scn, p, sign, np.eye(m))
        jv = np.asarray(j(p), dtype=object)
        dproj = qt.project_jacobian(scn, p)
        out = np.empty((m, m), dtype=object)
        for nu in range(m):
            red = dproj @ (jv @ lifts[nu])
            for mu in range(m):
                out[mu, nu] = red[mu]
        return out
    return ChartField(scn.quotient, ch.Valence(1, 1), fn)


def _two_generator_structures():
    """Two non-constant (1,1) fields on the s = 2 action; only the algebra
    of the push-forward is exercised."""
    scn = QUOTIENTS[1]
    box = scn.ctx.chart

    def jfn(c, t):
        out = np.empty((5, 5), dtype=object)
        for i, k in np.ndindex(5, 5):
            out[i, k] = t * (i - 2 * k) + 0.1 * (i + 1) * sin(c[(i + k) % 5])
        return out
    return scn, gkmod.BiHermitianData(
        ChartField(box, ch.Valence(1, 1), lambda c: jfn(c, 0.3)),
        ChartField(box, ch.Valence(1, 1), lambda c: jfn(c, -0.7)))


@pytest.mark.parametrize("case", ["product_qg", "two_generators"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_reduced_j_field_keeps_the_column_loop(case, sign):
    if case == "product_qg":
        s = sc.product_qg({})
        scn, bh = s.quotient, s.gk
    else:
        scn, bh = _two_generator_structures()
    q = _qpoint(scn, 10)
    new = gkmod.reduced_j_field(bh, scn, sign)
    old = _old_reduced_j_field(bh.Jplus if sign > 0 else bh.Jminus, scn,
                               sign)
    got, want = new(q), old(q)
    assert np.max(np.abs(dual.tighten(want) - dual.tighten(want).T)) > 0.05
    assert _same(got, want)
    jnew, jold = ch.differentiate(new, q), ch.differentiate(old, q)
    assert _same(jnew.d1, jold.d1)


def _old_require_tangent(scn, point, vecs, tol=ch.EPS_ID):
    grads = scn.sd.gradients(point)[0]
    for v in vecs:
        for gr in grads:
            if not abs(float(gr @ v)) <= tol:
                raise TangencyError("field value not tangent to the locus")


def _raises(fn, *args):
    try:
        fn(*args)
    except TangencyError:
        return True
    return False


def test_require_tangent_keeps_the_pair_loop():
    scn = two_constraint_section()
    u = [1.1]
    p = scn.embed(u)
    frame = list(sm.tangent_frame(scn, u)[0])
    normal = np.array([1.0, 0.0, 0.0])     # d(x z) = z dx is not zero here
    grads = scn.sd.gradients(p)
    for vecs in (frame, frame + [normal], [normal] + frame,
                 frame + [frame[0] + 1e-7 * normal],
                 frame + [frame[0] + 1e-9 * normal]):
        assert _raises(sm._require_tangent, grads, vecs) == \
            _raises(_old_require_tangent, scn, p, vecs)
    assert not _raises(sm._require_tangent, grads, frame)
    assert _raises(sm._require_tangent, grads, frame + [normal])


def test_require_tangent_raises_on_a_nan_vector_and_a_nan_gradient(
        monkeypatch):
    scn = two_constraint_section()
    u = [1.1]
    p = scn.embed(u)
    frame = list(sm.tangent_frame(scn, u)[0])
    with pytest.raises(TangencyError):
        sm._require_tangent(scn.sd.gradients(p),
                            frame + [np.array([0.0, np.nan, 0.0])])
    grads = scn.sd.gradients(p)
    grads[0, 1, 2] = np.nan
    monkeypatch.setattr(sm.SectionData, "gradients", lambda self, pt: grads)
    with pytest.raises(TangencyError):
        sm._require_tangent(scn.sd.gradients(p), frame)
    with pytest.raises(TangencyError):
        _old_require_tangent(scn, p, frame)


# -- the s3xs1_gk flux -----------------------------------------------------------

_VOL4 = np.zeros((4, 4, 4, 4))
for _p in itertools.permutations(range(4)):
    _VOL4[_p] = ch._perm_sign(_p)


def _old_flux(fluxscale):
    def hfn(c):
        scale = fluxscale / (c[0] ** 2 + c[1] ** 2 + c[2] ** 2
                             + c[3] ** 2) ** 2
        out = np.empty((4, 4, 4), dtype=object)
        out[:] = 0.0
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    acc = 0.0
                    for i in range(4):
                        if _VOL4[i, j, k, l]:
                            acc = acc + _VOL4[i, j, k, l] * c[i]
                    out[j, k, l] = scale * acc
        return out
    return hfn


FLUXES = [2.0, -2.0, 0.7]


@pytest.mark.parametrize("flux", FLUXES)
def test_s3xs1_flux_at_a_float_point(flux):
    new = sc.s3xs1_gk({"flux": flux}).ctx.H.fn
    p = [0.7, 1.1, 0.9, 1.3]
    got, want = dual.tighten(new(p)), dual.tighten(_old_flux(flux)(p))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.count_nonzero(got) == 24


@pytest.mark.parametrize("flux", FLUXES)
def test_s3xs1_flux_at_dual_coordinates(flux):
    new = sc.s3xs1_gk({"flux": flux}).ctx.H.fn
    p = [0.7, 1.1, 0.9, 1.3]
    jnew = ch.differentiate(new, p, order=2)
    jold = ch.differentiate(_old_flux(flux), p, order=2)
    for got, want in ((jnew.value, jold.value), (jnew.d1, jold.d1),
                      (jnew.d2, jold.d2)):
        assert np.array_equal(got, want)
    assert np.max(np.abs(jnew.d2)) > 0.05


@pytest.mark.parametrize("flux", FLUXES)
def test_s3xs1_flux_at_batch_coordinates(flux):
    new = sc.s3xs1_gk({"flux": flux}).ctx.H.fn
    pts = sc.s3xs1_gk({}).chart.sample(np.random.default_rng(3), 7)
    batch = [dual.Batch(col) for col in pts.T]
    assert np.array_equal(dual.tighten(new(batch), 7),
                          dual.tighten(_old_flux(flux)(batch), 7))
    jnew = ch.differentiate(new, batch)
    jold = ch.differentiate(_old_flux(flux), batch)
    assert np.array_equal(jnew.d1, jold.d1)
    assert np.array_equal(jnew.value, jold.value)


def test_vol4_is_gone():
    assert not hasattr(sc, "_VOL4")


# -- one helper each --------------------------------------------------------------

def _old_reduced_flux(scn, point, lifts):
    lifts = np.array(lifts, dtype=object)
    out = ch.frame_contract(np.asarray(scn.ctx.H(point), dtype=object),
                            lifts, lifts, lifts)
    om = qt.omega_two_form(scn, point)
    for a, xf in enumerate(scn.ea.xi):
        o = lifts @ om[a] @ lifts.T
        w = np.asarray(xf(point), dtype=object) @ lifts.T
        out = out + (o[:, :, None] * w[None, None, :]
                     - o[:, None, :] * w[None, :, None]
                     + o[None, :, :] * w[:, None, None])
    return out


@pytest.mark.parametrize("scn", QUOTIENTS, ids=QUOTIENT_IDS)
def test_reduced_flux_keeps_the_hand_written_wedge(scn):
    q = _qpoint(scn, 11)
    p = scn.lift(q)
    lifts = qt.horizontal_lift(scn, p, +1, np.eye(scn.reduced_dim))
    # Omega^a has one-node Batch entries at a point
    want = dual.tighten(_old_reduced_flux(scn, p, lifts), 1)
    assert np.max(np.abs(want)) > 0.01
    assert _same(dual.tighten(qt._reduced_flux(scn, p, lifts), 1), want)

    def old_field(coords):
        pt = scn.lift(coords)
        return _old_reduced_flux(scn, pt, qt.horizontal_lift(
            scn, pt, +1, np.eye(scn.reduced_dim)))
    jnew = ch.differentiate(qt.reduced_flux_field(scn), q)
    jold = ch.differentiate(old_field, q, chart=scn.quotient)
    assert _same(jnew.value, jold.value) and _same(jnew.d1, jold.d1)


def _old_validate(ea, ctx, points, tol=ch.EPS_ID):
    s = ea.s
    res = {k: [] for k in ("isotropy", "flux_match", "invariance",
                           "independence")}
    for p in points:
        vvals, xvals = ([ch.differentiate(f, p).value[0] for f in fields]
                        for fields in (ea.V, ea.xi))
        gmat, hval = (ch.differentiate(f, p).value[0]
                      for f in (ctx.g, ctx.H))
        res["isotropy"] += [xvals[a] @ vvals[b] + xvals[b] @ vvals[a]
                            for a in range(s) for b in range(s)]
        for a in range(s):
            jxi = ch.differentiate(ea.xi[a], p, order=1)
            ivh = np.einsum("ijk,i->jk", hval, vvals[a])
            res["flux_match"].append(ch.exterior_derivative(jxi, 1)[0]
                                     - ivh)
            jva = ch.differentiate(ea.V[a], p)
            res["invariance"] += [
                ch.lie_derivative(jva, ch.differentiate(t, p))
                for t in (ctx.g, ctx.H)]
            res["flux_match"] += [
                ch.lie_derivative(jva, ch.differentiate(xb, p))
                for xb in ea.xi]
        gram = np.array([[va @ gmat @ vb for vb in vvals] for va in vvals])
        ev = np.linalg.eigvalsh(gram)
        res["independence"].append(
            float(not ev[0] > 1e-9 * max(ev[-1], 1e-30)))
    return {k: ch.max_abs(v) for k, v in res.items()}


@pytest.mark.parametrize("scn", [sc.hopf_flux({}).quotient] + QUOTIENTS,
                         ids=["hopf_flux"] + QUOTIENT_IDS)
def test_validate_extended_action_keeps_the_interior_product(scn):
    pts = scn.ctx.chart.sample(np.random.default_rng(12), 4)
    rep = qt.validate_extended_action(scn.ea, scn.ctx, pts)
    want = _old_validate(scn.ea, scn.ctx, pts)
    assert {k: c.residual for k, c in rep.conditions.items()} == want
    hval = scn.ctx.flux_at(pts[0])[0]
    vval = np.asarray(scn.ea.V[-1](list(pts[0])), dtype=float)
    assert np.max(np.abs(hval)) > 0.05
    assert _same(ch.interior(vval[None], hval[None], 3)[0],
                 np.einsum("ijk,i->jk", hval, vval))


def test_operator_slots_swap_the_last_two_frame_slots():
    rng = np.random.default_rng(13)
    r = rng.normal(size=(3, 3, 3, 3))
    frames = [rng.normal(size=(2, 3)) for _ in range(4)]
    got = ch.operator_slots(r, *frames)
    assert np.array_equal(got, np.swapaxes(ch.frame_contract(r, *frames),
                                           2, 3))
    assert np.allclose(got, np.einsum("ijkl,mi,nj,sk,rl->mnrs", r, *frames))


def test_operator_slots_pair_the_sphere_curvature_operator():
    """g(R(E0, E1) E0, E1) = -1 on the unit sphere, in operator slots."""
    s = sc.round_sphere({})
    p = [1.0, 2.0]
    frame = np.diag([1.0, 1.0 / np.sin(1.0)])
    got = ch.operator_slots(riemann_of(ch.differentiate(s.ctx.g, p, order=2)),
                            *[frame] * 4)
    assert got[:, 0, 1, 0, 1] == pytest.approx(-1.0, abs=1e-12)
    assert got[:, 0, 1, 1, 0] == pytest.approx(1.0, abs=1e-12)


# -- a non-finite structure in gk_reduce ----------------------------------------

def nan_jplus_product_qg(params):
    """product_qg with one entry of J_+ set to NaN."""
    s = sc.product_qg(params)
    j = s.gk.Jminus

    def fn(c):
        out = np.asarray(j.fn(c), dtype=object).copy()
        out[0, 1] = float("nan")
        return out
    jp = ChartField(j.chart, j.valence, fn, name="NaN J")
    return dataclasses.replace(s, gk=gkmod.BiHermitianData(jp, j))


@pytest.mark.parametrize("cid", ["gk_reduce", "gk_validate"])
def test_a_nan_structure_names_the_point(cid):
    # the samples are one batch point: the error names the node's point
    with pytest.raises(EvaluationError,
                       match=r"non-finite output at node 0 \("):
        ck.run_check(nan_jplus_product_qg({}), cid, 42)


_FACTORY = """
import dataclasses
import numpy as np
from ggred import gk, scenarios
from ggred.chart import ChartField


def nan_jplus_product_qg(params):
    s = scenarios.product_qg(params)
    j = s.gk.Jminus

    def fn(c):
        out = np.asarray(j.fn(c), dtype=object).copy()
        out[0, 1] = float("nan")
        return out
    jp = ChartField(j.chart, j.valence, fn, name="NaN J")
    return dataclasses.replace(s, gk=gk.BiHermitianData(jp, j))
"""


def test_a_nan_structure_exits_3_from_the_cli(tmp_path, monkeypatch, capsys):
    (tmp_path / "nanj_factory.py").write_text(_FACTORY)
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = tmp_path / "nanj.json"
    cfg.write_text(json.dumps({
        "scenario": "custom", "factory": "nanj_factory:nan_jplus_product_qg",
        "checks": ["gk_reduce"], "parameters": {"points": 2}}))
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "scenario error" in err and "non-finite output at node 0 (" in err


def test_finite_structures_keep_their_tau_defects():
    scn, bh = _two_generator_structures()
    p = scn.lift(_qpoint(scn, 14))
    want = []
    for sign, j in bh.pair():
        proj = projector_at(scn.ea, scn.ctx, p, sign)[0]
        jv = dual.tighten(np.asarray(j(p), dtype=object))
        defect = np.einsum("ij,jk,kl->il", np.eye(scn.ambient_dim) - proj,
                           jv, proj)
        want.append(float(np.linalg.norm(defect, 2)))
    got = tuple(d[0] for d in gkmod.check_tau_invariance(bh, scn, p))
    assert got == tuple(want) and max(got) > 0.05
