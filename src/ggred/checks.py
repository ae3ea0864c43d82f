"""Named verification checks runnable against any compatible scenario.

Each check draws its own deterministic random stream (derived from the run
seed and the check's registry index), samples the relevant charts, and
reports the worst residual over all samples (``chart.max_abs``, so a NaN
sample fails) together with its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable

import numpy as np

from . import chart as ch
from . import dual
from . import gk as gkmod
from . import localize as lz
from . import quotient as qt
from . import submanifold as sm
from .dual import Batch, batched, chunks, sin
from .errors import ConfigError, RankError, ScenarioError
from .genmetric import (Geometry, bismut_curvature, bismut_derivative,
                        bismut_via_courant, field_values)
from .grassmann import pfaffian
from .scenarios import Scenario, int_param

MAX_ORDER = 32   # Euler quadrature nodes per axis


@dataclass
class CheckResult:
    id: str
    points: int
    max_residual: float
    tolerance: float
    status: str   # "pass" | "fail" | "exploratory"

    @property
    def passed(self) -> bool:
        return self.status != "fail"


def _result(cid, points, residual, tol, exploratory=False) -> CheckResult:
    if exploratory:
        status = "exploratory"
    else:
        status = "pass" if residual <= tol else "fail"
    return CheckResult(cid, points, float(residual), float(tol), status)


def random_field_coeffs(n: int, rng):
    """The seeded coefficients of :func:`random_vector_field`."""
    return rng.normal(size=n) * 0.5, rng.normal(size=(n, n)) * 0.3


def vector_field(chart: ch.Chart, c0, c1) -> ch.ChartField:
    """The field c0^i + sum_j c1^i_j sin(c^j), with ``dual.Batch``
    coefficients read from a leading node axis."""
    n = chart.dim
    c0, c1 = dual.entries(c0), dual.entries(c1)

    def fn(c):
        sines = [sin(x) for x in c]
        return [c0[i] + sum(c1[i][j] * sines[j] for j in range(n))
                for i in range(n)]
    return ch.batch_field(chart, ch.VECTOR, fn, name="random")


def random_vector_field(chart: ch.Chart, rng) -> ch.ChartField:
    """A smooth seeded vector field: affine plus sine terms per axis."""
    c0, c1 = random_field_coeffs(chart.dim, rng)
    return vector_field(chart, c0[None], c1[None])


def _sampled(residual, chart, rng, n):
    """The largest |entry| of ``residual`` over n samples of ``chart``, in
    chunks of at most dual.BATCH, each one batch point."""
    return ch.max_abs(batched(residual, chunks((chart.sample(rng, n),))))


def _npoints(s: Scenario, default, override=None):
    params = s.params if override is None else {"points": override}
    return int_param(params, "points", default, s.name, positive=True)


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------

def check_bismut_courant(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Bracket route vs direct torsion covariant derivative."""
    npairs = _npoints(s, 100, points)
    pts = s.chart.sample(rng, npairs)
    draws = [random_field_coeffs(s.chart.dim, rng)
             + random_field_coeffs(s.chart.dim, rng)
             + (1 if rng.random() < 0.5 else -1,) for _ in range(npairs)]
    *coeffs, signs = (np.array(c) for c in zip(*draws))

    def residual(p, sign, c0x, c1x, c0y, c1y):
        sign = int(np.ravel(sign)[0])   # a chunk holds one sign
        x, y = vector_field(s.chart, c0x, c1x), vector_field(s.chart, c0y, c1y)
        d = bismut_derivative(x, y, sign, s.ctx, p) \
            - bismut_via_courant(x, y, sign, s.ctx, p)
        return np.abs(d).max(axis=1)

    runs = chunks((pts, signs, *coeffs), np.flatnonzero(signs > 0),
                  np.flatnonzero(signs < 0))
    return _result("bismut_courant", npairs,
                   ch.max_abs(batched(residual, runs)), tol)


def check_pair_symmetry(s: Scenario, rng, tol, points=None) -> CheckResult:
    """R^-[ijkl] = R^+[klij] plus the antisymmetries of both arrays."""
    n = _npoints(s, 100, points)

    def residual(p):
        geo = Geometry(s.ctx, p)
        rm = bismut_curvature(-1, geo)
        rp = bismut_curvature(+1, geo)
        return np.max([np.abs(d).max(axis=(1, 2, 3, 4)) for d in (
            rm - np.einsum("...ijkl->...klij", rp),
            rm + np.einsum("...ijkl->...jikl", rm),
            rp + np.einsum("...ijkl->...ijlk", rp))], axis=0)

    return _result("pair_symmetry", n, _sampled(residual, s.chart, rng, n),
                   tol)


def check_lemma62(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Connection curvature of tau_pm: matrix-weighted d xi vs direct d theta."""
    n = _npoints(s, 25, points)

    def residual(p):    # one Geometry, action jet and set of matrices
        geo, jet = Geometry(s.ctx, p), qt.action_jet(s.ea, s.ctx, p)
        held = (geo.g, geo.ginv, jet.value[:, 0], jet.value[:, 1])
        rm = qt.reduction_matrices(*held)
        frames = zip((+1, -1), qt.horizontal_frames(*held))
        return np.max([np.abs(np.subtract(*qt.omega_curvature(
            s.ea, s.ctx, sign, p, fr, jet, rm))).max(axis=(1, 2, 3))
            for sign, fr in frames], axis=0)
    return _result("lemma62", n, _sampled(residual, s.chart, rng, n), tol)


def _batched_pairs(sample, ambient, direct, chart, rng, n):
    """Per sample, the largest |ambient - direct| on the sample's frame, over
    n samples of ``chart``: ``ambient`` reads the sample object, ``direct``
    only (x, basis)."""
    def residual(x):
        lp = sample(x)
        return np.abs(ambient(lp) - direct(x, lp.basis)).max(
            axis=(1, 2, 3, 4))

    return _sampled(residual, chart, rng, n)


def check_thm63(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Ambient-formula reduced curvature vs direct quotient computation."""
    n = _npoints(s, 50, points)
    scn = s.quotient
    return _result("thm63", n, _batched_pairs(
        partial(qt.LiftedPoint, scn), qt.reduced_curvature_quotient,
        partial(qt.reduced_curvature_direct, scn), scn.quotient, rng, n), tol)


def _flux_free_action(s: Scenario, p) -> bool:
    """H and every xi_a zero at p; a NaN H or xi is not flux-free."""
    return ch.max_abs([s.ctx.flux_at(p)] + [
        field_values(x, p) for x in s.ea.xi]) == 0.0


def check_oneill(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Flux-free degeneration vs the classical submersion formula."""
    scn = s.quotient
    probe = [Batch(x) for x in scn.quotient.sample(rng, 1).T]
    if not _flux_free_action(s, scn.lift(probe)):
        raise ScenarioError("oneill check needs zero flux and zero xi")
    n = _npoints(s, 25, points)
    return _result("oneill", n, _batched_pairs(
        partial(qt.LiftedPoint, scn), qt.reduced_curvature_quotient,
        partial(qt.oneill_curvature, scn), scn.quotient, rng, n), tol)


def check_thm65(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Ambient-formula locus curvature vs direct induced-geometry value."""
    n = _npoints(s, 50, points)
    scn = s.section
    return _result("thm65", n, _batched_pairs(
        partial(sm.LocusPoint, scn), sm.reduced_curvature_sub,
        partial(sm.reduced_curvature_sub_direct, scn), scn.nchart, rng, n),
        tol)


def _chain_residual(sample, point_frame, curvature, model, x):
    """Per node of the sample at x: the largest coefficient of the chain
    exponent minus its quartic curvature pairing (terms of degree below 4
    count in full), from one frame, curvature and Grassmann stage."""
    lp = sample(x)
    # the curvature first: its memory peak comes before the frame is held
    reduced = curvature(lp)
    pf = point_frame(lp)
    exponent, _ = lz.localize_model(pf, model)
    target = lz.localized_exponent_target(pf, reduced)
    return np.broadcast_to((exponent - target).max_abs(), dual.nodes(x))


def check_localize2(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Gauged-model chain exponent vs reduced-curvature pairing."""
    n = _npoints(s, 100, points)
    scn = s.quotient
    return _result("localize2", n, _sampled(
        partial(_chain_residual, partial(qt.LiftedPoint, scn),
                lz.point_frame_quotient, qt.reduced_curvature_quotient,
                "quotient"), scn.quotient, rng, n), tol)


def check_localize3(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Constrained-model chain exponent vs locus-curvature pairing."""
    n = _npoints(s, 100, points)
    scn = s.section
    return _result("localize3", n, _sampled(
        partial(_chain_residual, partial(sm.LocusPoint, scn),
                lz.point_frame_section, sm.reduced_curvature_sub, "section"),
        scn.nchart, rng, n), tol)


def check_phi_closed_form(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Eliminated mixed multiplier vs its closed form."""
    n = _npoints(s, 25, points)
    scn = s.quotient

    def residuals(q):
        pf = lz.point_frame_quotient(qt.LiftedPoint(scn, q))
        _, details = lz.localize_model(pf, "quotient")
        closed = mixed_multiplier_closed_form(pf)
        return np.broadcast_to(reduce(np.maximum, (
            (closed[a] - details[f"pm{a}"][0]).max_abs()
            for a in range(pf.s))), dual.nodes(q))
    return _result("phi_closed_form", n, _sampled(
        residuals, scn.quotient, rng, n), tol)


def mixed_multiplier_closed_form(pf: lz.PointFrame):
    """-(1/2) T^{ab} [(grad_+ V_b^-, psi_-) + (grad_- V_b^+, psi_+)
    - H-xi coupling], built independently of the elimination machinery."""
    m = pf.m
    ngen = 2 * m
    p_fr, m_fr = pf.plus_frame, pf.minus_frame
    tinv = dual.entries(ch.inverse(pf.T_ab, RankError, "T_ab"))
    dvm = pf.dv_cov_low - pf.dxi_cov
    dvp = pf.dv_cov_low + pf.dxi_cov
    hxi = ch.node_einsum("ijm,mk,bk->bij", pf.H, pf.ginv, pf.xi)
    lbs = []
    for b in range(pf.s):
        t1 = ch.node_einsum("kj,mk,rj->mr", dvm[:, b], p_fr, m_fr)
        t2 = ch.node_einsum("kj,rk,mj->rm", dvp[:, b], m_fr, p_fr)
        t3 = ch.node_einsum("ij,ri,mj->rm", hxi[:, b], m_fr, p_fr)
        lbs.append(lz._quad_sum(ngen, m, t1, 0, m)
                   + lz._quad_sum(ngen, m, t2, m, 0)
                   + lz._quad_sum(ngen, m, -t3, m, 0))
    out = []
    for a in range(pf.s):
        lam = lz.G(ngen)
        for b, lb in enumerate(lbs):
            lam = lam + lb * tinv[a, b]
        out.append(-0.5 * lam)
    return out


_EULER_EXPECTED = {
    ("flat_torus", 2): (0.0, 1e-10),
    ("flat_torus", 4): (0.0, 1e-10),
    ("round_sphere", 1): (2.0, 0.02),
    ("round_sphere", 2): (4.0, 0.08),
}


def _euler_setup(s: Scenario):
    if s.euler_domain is None:
        raise ScenarioError("scenario has no quadrature cover")
    dim = len(s.euler_domain[0])
    if s.name == "flat_torus":
        key = ("flat_torus", dim)
    elif s.name == "round_sphere":
        key = ("round_sphere", int(s.params.get("factors", 1)))
    else:
        key = None
    order = int_param(s.params, "order", 16 if dim <= 2 else 8, s.name,
                      positive=True)
    if order > MAX_ORDER:
        raise ConfigError(f"parameter 'order' must be at most {MAX_ORDER}, "
                          f"got {order}")
    return dim, key, order


def check_euler(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Quadrature of the fermionic curvature density vs the known value."""
    dim, key, order = _euler_setup(s)
    expected, def_tol = _EULER_EXPECTED.get(key, (None, tol))
    if expected is None:
        raise ScenarioError(f"no reference Euler number for {s.name}")
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order)
    return _result("euler", order ** dim, abs(chi - expected), def_tol)


def check_euler_flux(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Exploratory: quadrature of the torsion-curvature density with flux.

    Reported, never failing: whether the flux-twisted density still
    integrates to the Euler number is asserted without proof in the source
    material.
    """
    dim, _, order = _euler_setup(s)
    chi = lz.euler_characteristic(s.ctx, s.euler_domain, order)
    return _result("euler_flux", order ** dim, abs(chi - 0.0), tol,
                   exploratory=True)


def check_pfaffian(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Pf(A)^2 = det(A) on random antisymmetric matrices."""
    count = _npoints(s, 1000, points)
    sizes = (2, 4, 6, 8)
    per = max(count // len(sizes), 1)

    def residual(nn):   # the draws of one matrix at a time, as one stack
        a = rng.normal(size=(per, nn, nn))
        a = a - a.swapaxes(1, 2)
        pf, det = np.array([pfaffian(x) for x in a]), ch.gauss_jordan(a)[1]
        return (pf * pf - det) / np.maximum(np.abs(det), 1.0)
    return _result("pfaffian", per * len(sizes), ch.max_abs(
        residual(nn) for nn in sizes), tol)


def check_gk_validate(s: Scenario, rng, tol, points=None) -> CheckResult:
    """All structure conditions for the almost complex pair."""
    n = _npoints(s, 10, points)
    pts = s.chart.sample(rng, n)
    rep = gkmod.validate_bihermitian(s.gk, s.ctx, pts, rng=rng, tol=tol)
    return _result("gk_validate", n, rep.max_residual, tol)


def check_gk_reduce(s: Scenario, rng, tol, points=None) -> CheckResult:
    """Reduction of the structures to the quotient and re-validation."""
    n = _npoints(s, 10, points)
    scn = s.quotient

    def residual(q):    # the report holds the tau_pm invariance defects
        return [gkmod.reduce_gk(s.gk, scn, q, rng=rng, tol=tol)[2]
                .max_residual]
    return _result("gk_reduce", n, _sampled(residual, scn.quotient, rng, n),
                   tol)


def check_ea_validate(s: Scenario, rng, tol, points=None) -> CheckResult:
    """The four validity conditions of the extended action."""
    n = _npoints(s, 10, points)
    pts = s.chart.sample(rng, n)
    rep = qt.validate_extended_action(s.ea, s.ctx, pts, tol=tol)
    return _result("ea_validate", n, rep.max_residual, tol)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CheckSpec:
    id: str
    fn: Callable
    tolerance: float
    applies: Callable[[Scenario], bool]
    description: str
    exploratory: bool = False


REGISTRY: dict[str, CheckSpec] = {}


def _register(spec: CheckSpec):
    REGISTRY[spec.id] = spec


def _quotient(s: Scenario) -> bool:
    return s.quotient is not None


def _flux_free_quotient(s: Scenario) -> bool:
    return _quotient(s) and _flux_free_action(s, [
        Batch(x) for x in s.chart.sample(np.random.default_rng(0), 1).T])


def _euler_cover(flux: bool):
    """Applies to an even-dimensional cover, with flux exactly if ``flux``."""
    return lambda s: s.euler_domain is not None and \
        len(s.euler_domain[0]) % 2 == 0 and s.ctx.has_flux == flux


_register(CheckSpec("bismut_courant", check_bismut_courant, 1e-8,
                    lambda s: True,
                    "bracket route equals the torsion covariant derivative"))
_register(CheckSpec("pair_symmetry", check_pair_symmetry, 1e-8,
                    lambda s: True,
                    "chirality exchange symmetry of the two curvatures"))
_register(CheckSpec("lemma62", check_lemma62, 1e-8, _quotient,
                    "horizontal curvature: weighted d(xi) vs direct d(theta)"))
_register(CheckSpec("thm63", check_thm63, 1e-6, _quotient,
                    "quotient curvature: ambient formula vs direct chart"))
_register(CheckSpec("oneill", check_oneill, 1e-6, _flux_free_quotient,
                    "flux-free degeneration vs classical submersion formula"))
_register(CheckSpec("thm65", check_thm65, 1e-6,
                    lambda s: s.section is not None,
                    "zero-locus curvature: ambient formula vs induced chart"))
_register(CheckSpec("localize2", check_localize2, 1e-6, _quotient,
                    "gauged-model localization equals quotient curvature"))
_register(CheckSpec("localize3", check_localize3, 1e-6,
                    lambda s: s.section is not None,
                    "constrained-model localization equals locus curvature"))
_register(CheckSpec("phi_closed_form", check_phi_closed_form, 1e-8,
                    _quotient,
                    "eliminated mixed multiplier matches its closed form"))
_register(CheckSpec("euler", check_euler, 0.02, _euler_cover(False),
                    "fermionic density quadrature gives the Euler number"))
_register(CheckSpec("euler_flux", check_euler_flux, 0.02, _euler_cover(True),
                    "flux-twisted density quadrature (report only)",
                    exploratory=True))
_register(CheckSpec("pfaffian", check_pfaffian, 1e-10, lambda s: True,
                    "squared fermionic Gaussian equals the determinant"))
_register(CheckSpec("gk_validate", check_gk_validate, 1e-8,
                    lambda s: s.gk is not None,
                    "structure-pair validity conditions"))
_register(CheckSpec("gk_reduce", check_gk_reduce, 1e-6,
                    lambda s: s.gk is not None and _quotient(s),
                    "structure pair descends to the quotient and re-validates"))
_register(CheckSpec("ea_validate", check_ea_validate, 1e-8, _quotient,
                    "extended-action validity conditions"))

CHECK_ORDER = list(REGISTRY)


def applicable(s: Scenario, cid: str) -> bool:
    return REGISTRY[cid].applies(s)


def default_checks(s: Scenario) -> list[str]:
    return [cid for cid in CHECK_ORDER
            if applicable(s, cid) and cid != "pfaffian"] + \
        (["pfaffian"] if s.name == "flat_torus" else [])


def run_check(s: Scenario, cid: str, seed: int, points=None) -> CheckResult:
    spec = REGISTRY[cid]
    if not applicable(s, cid):
        raise ScenarioError(f"check {cid!r} not applicable to {s.name!r}")
    rng = np.random.default_rng([seed, CHECK_ORDER.index(cid)])
    return spec.fn(s, rng, spec.tolerance, points)
