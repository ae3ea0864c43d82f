"""Reduction by a free isometric action extended with 1-forms.

Given generators V_a and 1-forms xi_a making the flux equivariantly closed,
this module checks the validity conditions, builds the two horizontal
distributions tau_pm = {Y : g(Y, V_a) +/- xi_a(Y) = 0}, computes their
connection curvatures, pushes metric and flux to a user-supplied quotient
chart, and evaluates the reduced torsion connection and its curvature from
ambient data only.  Every reduced quantity has an independent cross-check:
the same object computed directly on the quotient chart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chart as ch
from . import dual
from .errors import LiftError, RankError, ScenarioError, SingularMetricError
from .genmetric import (GeneralizedMetricContext, Geometry,
                        bismut_connection_coeffs, bismut_curvature,
                        bismut_derivative, field_values, zero_flux)


@dataclass(frozen=True)
class ExtendedAction:
    """Generators V_a with companion 1-forms xi_a, a = 1..s."""

    V: tuple[ch.ChartField, ...]
    xi: tuple[ch.ChartField, ...]

    def __post_init__(self):
        if len(self.V) != len(self.xi) or not self.V:
            raise ValueError("need equal, nonzero numbers of V and xi fields")

    @property
    def s(self) -> int:
        return len(self.V)


def zero_xi(chart: ch.Chart) -> ch.ChartField:
    n = chart.dim
    return ch.batch_field(chart, ch.COVECTOR, lambda c: np.zeros(n), name="0")


@dataclass
class ConditionResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass
class ValidationReport:
    conditions: dict[str, ConditionResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions.values())

    def failing(self) -> list[str]:
        return [n for n, c in self.conditions.items() if not c.passed]

    @property
    def max_residual(self) -> float:
        return ch.max_abs(c.residual for c in self.conditions.values())

    @classmethod
    def sampled(cls, residuals, tols: dict, points, *args):
        """The report over ``points``, which go through ``dual.batched`` in
        chunks of at most ``dual.BATCH``, with the rows of ``args``: at a
        batch point p, ``residuals(p, *args)`` lists the residual arrays of
        each condition of ``tols`` (name -> tolerance), node axis first."""
        def rows(p, *a):        # per node, each condition's largest |entry|
            return np.stack([np.max([np.abs(r).reshape(dual.nodes(p), -1)
                                     .max(1) for r in rs], axis=0)
                             for rs in residuals(p, *a)], axis=-1)
        rows = np.reshape(list(dual.batched(rows, dual.chunks(
            (np.asarray(points, dtype=float),) + args))), (-1, len(tols)))
        return cls({k: ConditionResult(k, ch.max_abs([rows[:, i]]), t)
                    for i, (k, t) in enumerate(tols.items())})

    def __repr__(self):
        rows = ", ".join(f"{n}={c.residual:.2e}{'' if c.passed else '(FAIL)'}"
                         for n, c in self.conditions.items())
        return f"ValidationReport({rows})"


def validate_extended_action(ea: ExtendedAction, ctx: GeneralizedMetricContext,
                             points, tol: float = ch.EPS_ID
                             ) -> ValidationReport:
    """Evaluate the four validity conditions at the points.

    * isotropy:      xi_a(V_b) + xi_b(V_a) = 0
    * flux_match:    d xi_a = i_{V_a} H   and   L_{V_a} xi_b = 0
    * invariance:    L_{V_a} g = 0  and  L_{V_a} H = 0
    * independence:  the V_a stay pointwise linearly independent
    """
    def residuals(p):
        # one order-1 jet of each field, read by the Lie derivatives
        jv, jx = ([ch.differentiate(f, p) for f in fields]
                  for fields in (ea.V, ea.xi))
        jg, jh = (ch.differentiate(f, p) for f in (ctx.g, ctx.H))
        v, x = (np.stack([j.value for j in js], 1) for js in (jv, jx))
        iso = ch.node_einsum("ai,bi->ab", x, v)        # xi_a(V_b)
        inv = [ch.lie_derivative(va, jt) for va in jv for jt in (jg, jh)]
        flux = [ch.exterior_derivative(ja, 1)
                - ch.interior(va.value, jh.value, 3)
                for ja, va in zip(jx, jv)]
        flux += [ch.lie_derivative(va, jb) for va in jv for jb in jx]
        gram = ch.node_einsum("ai,ij,bj->ab", v, jg.value, v)
        ev = np.linalg.eigvalsh(gram)
        # 1.0 where the V_a are (nearly) dependent or the Gram matrix is NaN
        dep = ~(ev[..., 0] > 1e-9 * np.maximum(ev[..., -1], 1e-30))
        return [iso + iso.swapaxes(1, 2)], flux, inv, [dep.astype(float)]

    return ValidationReport.sampled(residuals, {
        "isotropy": tol, "flux_match": tol, "invariance": tol,
        "independence": 0.5}, points)


@dataclass
class ReductionMatrices:
    """The pointwise matrices G_ab, K_ab, T_ab and their inverses."""

    G: np.ndarray
    K: np.ndarray
    T: np.ndarray
    Kinv: np.ndarray
    Tinv: np.ndarray


def reduction_matrices(gmat, ginv, v, x) -> ReductionMatrices:
    """G_ab = g(V_a, V_b); K_ab = G_ab - xi_a(V_b);
    T_ab = G_ab + g^{-1}(xi_a, xi_b), from the g, g^-1 and s x n rows V_a
    and xi_a that the caller holds, node axis first."""
    G = ch.node_einsum("ai,ij,bj->ab", v, gmat, v)
    K = G - ch.node_einsum("ai,bi->ab", x, v)
    T = G + ch.node_einsum("ai,ij,bj->ab", x, ginv, x)
    Tinv = ch.inverse(T, RankError, "T_ab", definite=True)
    Kinv = ch.inverse(K, RankError, "K_ab")
    return ReductionMatrices(G, K, T, Kinv, Tinv)


def _action_rows(ea: ExtendedAction, ctx: GeneralizedMetricContext, point):
    """(g, V, xi) at a point as object arrays: g is n x n, and row a of the
    s x n arrays V and xi holds V_a and xi_a (dual-safe)."""
    gmat = np.asarray(ctx.g(point), dtype=object)
    v, x = (np.array([np.asarray(f(point), dtype=object) for f in fields])
            for fields in (ea.V, ea.xi))
    return gmat, v, x


def v_pm_values(ea: ExtendedAction, ctx: GeneralizedMetricContext, point,
                sign: int) -> np.ndarray:
    """The s x n rows V_a +/- g^{-1} xi_a at a point (dual-safe)."""
    gmat, v, x = _action_rows(ea, ctx, point)
    return v + sign * (ch.inverse(gmat) @ x.T).T


def xi_pm_field(ea: ExtendedAction, ctx: GeneralizedMetricContext, a: int,
                sign: int) -> ch.ChartField:
    """The 1-form g(V_a^pm) = g(V_a) +/- xi_a."""
    def fn(coords):
        return constraint_rows(ea, ctx, coords, sign)[a]
    return ch.batch_field(ctx.chart, ch.COVECTOR, fn,
                         name=f"xi{a}{'+' if sign > 0 else '-'}")


def constraint_rows(ea: ExtendedAction, ctx: GeneralizedMetricContext, point,
                    sign: int) -> np.ndarray:
    """The s x n rows (g(V_a) + sign * xi_a)_j; tau_sign is their joint
    kernel (dual-safe)."""
    gmat, v, x = _action_rows(ea, ctx, point)
    return (gmat @ v.T).T + sign * x


def action_jet(ea: ExtendedAction, ctx: GeneralizedMetricContext, point
               ) -> ch.PointJet:
    """One order-1 jet of the stacked rows [V_a, xi_a, g V_a]: index 0, 1 or
    2 on the axis after the derivative axis (dual-safe)."""
    def rows(coords):
        gmat, v, x = _action_rows(ea, ctx, coords)
        return [v, x, (gmat @ v.T).T]
    return ch.differentiate(rows, point, order=1, chart=ctx.chart)


def d_constraint_rows(jet: ch.PointJet):
    """(d(g V_a^+), d(g V_a^-)): two s x n x n stacks of the 2-forms
    d(g(V_a) +/- xi_a), from an :func:`action_jet` (after any node axis).

    The sign is applied to the jet before it is antisymmetrized, so each
    stack equals the exterior derivative of that sign's own row jet.
    """
    out = []
    for sign in (+1, -1):
        d = jet.d1[..., 2, :, :] + sign * jet.d1[..., 1, :, :]  # d_k row_aj
        out.append(d.swapaxes(-3, -2) - np.moveaxis(d, -3, -1))
    return tuple(out)


def tau_projector(gmat, ginv, v, x, sign: int) -> np.ndarray:
    """g-orthogonal projector 1 - V^T T^{-1} V g onto tau_sign, V the rows
    V_a + sign g^{-1} xi_a and T = V g V^T, from the g, g^-1 and s x n rows
    V_a and xi_a that the caller holds, node axis first."""
    vpm = v + sign * ch.node_einsum("ij,aj->ai", ginv, x)
    tinv = ch.inverse(ch.node_einsum("ai,ij,bj->ab", vpm, gmat, vpm),
                      RankError, f"T of the V^{'+' if sign > 0 else '-'} rows",
                      definite=True)
    return np.eye(gmat.shape[-1]) - ch.node_einsum(
        "ai,ab,bj,jk->ik", vpm, tinv, vpm, gmat)


def horizontal_frames(gmat, ginv, v, x):
    """Orthonormal (w.r.t. g) bases of tau_+ and tau_- (one per node, on a
    leading axis), from what :func:`tau_projector` takes.

    Each tau_sign is the g-orthogonal complement of span{V_a^sign}; the
    basis comes from modified Gram-Schmidt over projected coordinate
    vectors in fixed order, so it is deterministic.
    """
    return tuple(ch.orthonormal_frame(np.swapaxes(tau_projector(
        gmat, ginv, v, x, sign), 1, 2), gmat, gmat.shape[-1] - v.shape[-2],
        f"tau_{'+' if sign > 0 else '-'} frame") for sign in (+1, -1))


def _k_inverse(ea: ExtendedAction, ctx: GeneralizedMetricContext, point):
    """K^{-1} for K_ab = g(V_a, V_b) - xi_a(V_b) at a point (dual-safe)."""
    gmat, v, x = _action_rows(ea, ctx, point)
    return ch.inverse(v @ gmat @ v.T - x @ v.T)


def omega_curvature(ea: ExtendedAction, ctx: GeneralizedMetricContext,
                    sign: int, point, frame, jet, rm):
    """Connection curvature of tau_sign on frame pairs, by both routes.

    Returns (from_xi, from_theta): s x m x m arrays (after a leading node
    axis, as on a frame from :func:`horizontal_frames`)
    from_xi[a, i, j]  the matrix-weighted d(g(V^sign)) evaluation, read from
    the point's :func:`action_jet` and :func:`reduction_matrices`, and
    from_theta[a, i, j] the direct exterior derivative of the connection
    form theta^a; the two agree on tau_sign.
    """
    frame = np.asarray(frame, dtype=float)
    dxi_pm = d_constraint_rows(jet)[0 if sign > 0 else 1]
    # curvature of tau_+: K^{ba} d(g V_b^+); of tau_-: K^{ab} d(g V_b^-)
    mix = ch.node_einsum("ba,bij->aij" if sign > 0 else "ab,bij->aij",
                         rm.Kinv, dxi_pm)
    from_xi = ch.node_einsum("aij,pi,qj->apq", mix, frame, frame)

    def theta_fn(coords):
        # theta^a = K^{ba} g(V_b^+) on tau_+, K^{ab} g(V_b^-) on tau_-
        kinv = _k_inverse(ea, ctx, coords)
        rows = constraint_rows(ea, ctx, coords, sign)
        return (kinv.T if sign > 0 else kinv) @ rows

    tjet = ch.differentiate(theta_fn, point, order=1)
    # d(theta^a)_{ij} = d_i theta^a_j - d_j theta^a_i
    dth = np.einsum("...iaj->...aij", tjet.d1) \
        - np.einsum("...jai->...aij", tjet.d1)
    from_theta = ch.node_einsum("aij,pi,qj->apq", dth, frame, frame)
    return from_xi, from_theta


@dataclass(frozen=True)
class QuotientScenario:
    """Ambient data plus an explicit quotient chart with section maps."""

    ctx: GeneralizedMetricContext
    ea: ExtendedAction
    quotient: ch.Chart
    project: Callable
    lift: Callable
    name: str = ""

    def __post_init__(self):
        for name in ("project", "lift"):
            object.__setattr__(self, name, dual.per_node(getattr(self, name)))

    @property
    def ambient_dim(self) -> int:
        return self.ctx.chart.dim

    @property
    def reduced_dim(self) -> int:
        return self.quotient.dim

    def check_maps(self, rng, n: int = 5, tol: float = 1e-10):
        """project(lift(q)) = q and d(project)(V_a) = 0 on n samples."""
        q = self.quotient.sample(rng, n)
        p = self.lift([dual.Batch(x) for x in q.T])
        dproj = dual.tighten(project_jacobian(self, p), n)
        worst = ch.max_abs([dual.tighten(list(self.project(p)), n) - q] + [
            ch.node_einsum("ij,j->i", dproj, field_values(vf, p))
            for vf in self.ea.V])
        if not worst <= tol:
            raise ScenarioError(
                f"quotient maps inconsistent (residual {worst:.2e})")
        return worst


def project_jacobian(scn: QuotientScenario, point):
    """d(project) at an ambient point; dual-safe in the point."""
    return dual.gradient(scn.project, list(point)).T


def horizontal_lift(scn: QuotientScenario, point, sign: int, qvecs):
    """tau_sign lifts of quotient vectors at an ambient point, one row per
    vector (a float array at a float point).

    Solves the square system stacking the s constraint rows of tau_sign on
    d(project), one solve for all vectors; raises LiftError when
    the system degenerates.  At a batch point the entries stay ``Batch``
    values (``qvecs`` may hold them too), as a field body needs them;
    callers outside a field tighten with ``dual.nodes(point)``.
    """
    if len(qvecs) == 0:
        return []
    n = scn.ambient_dim
    s = scn.ea.s
    mat = np.empty((n, n), dtype=object)
    mat[:s] = constraint_rows(scn.ea, scn.ctx, point, sign)
    mat[s:] = project_jacobian(scn, point)
    rhs = np.empty((n, len(qvecs)), dtype=object)
    rhs[:s] = 0.0
    rhs[s:] = np.asarray(qvecs, dtype=object).T
    try:
        sol = ch.solve_linear(mat, rhs)
    except SingularMetricError as exc:
        raise LiftError(f"horizontal lift degenerate: {exc}") from exc
    # C order, as the rows were: every node stack is in C order
    return dual.tighten(sol.T.copy())


def lifted_field(scn: QuotientScenario, qfield: ch.ChartField,
                 sign: int) -> ch.ChartField:
    """Ambient vector field lifting a quotient field through tau_sign."""
    def fn(coords):
        q = scn.project(coords)
        w = np.asarray(qfield(q), dtype=object)
        return horizontal_lift(scn, coords, sign, [w])[0]
    return ch.batch_field(scn.ctx.chart, ch.VECTOR, fn,
                         name=f"lift{sign:+d}({qfield.name})")


def omega_two_form(scn: QuotientScenario, point):
    """tau_+ curvature 2-forms Omega^a as ambient component arrays (with
    ``Batch`` entries, one-node at a plain point, as field bodies need)."""
    ea, ctx = scn.ea, scn.ctx
    dxi = d_constraint_rows(action_jet(ea, ctx, point))[0]
    dxi = dual.entries(dxi) if dxi.ndim == 4 else \
        np.asarray(dxi, dtype=object)
    # Omega^a = K^{ba} d(g(V_b^+))
    return np.tensordot(_k_inverse(ea, ctx, point), dxi, axes=(0, 0))


def _lifted_metric(scn: QuotientScenario, qpoint, sign: int):
    """(Geometry at p = lift(qpoint), float tau_sign lifts of the coordinate
    frame, its g on them); raises LiftError unless that is positive."""
    geo = Geometry(scn.ctx, scn.lift(qpoint))
    lifts = dual.tighten(horizontal_lift(scn, geo.point, sign, np.eye(
        scn.reduced_dim)), dual.nodes(geo.point))
    gred = ch.frame_contract(geo.g, lifts, lifts)
    ch.inverse(gred, LiftError, "reduced metric", definite=True)
    return geo, lifts, gred


def reduce_metric_flux(scn: QuotientScenario, qpoint):
    """Reduced metric and flux components at a quotient point.

    The metric restricts g to tau_+ lifts of the quotient coordinate
    frame; the flux evaluates H + Omega^a wedge xi_a on the same lifts and
    vanishes identically when the quotient dimension is at most 2.
    """
    m = scn.reduced_dim
    geo, lifts, gred = _lifted_metric(scn, qpoint, +1)
    hred = np.zeros(gred.shape[:1] + (m, m, m))
    if m > 2:
        hred = dual.tighten(_reduced_flux(scn, geo.point, dual.entries(
            lifts)), dual.nodes(geo.point))
    return gred, hred


def _reduced_flux(scn: QuotientScenario, point, lifts):
    """(H + Omega^a wedge xi_a) on the rows of ``lifts`` (dual-safe).

    H is pulled back in stages; each wedge term is the wedge of the m x m
    array L Omega^a L^T with the vector xi_a L^T of the lift rows L.
    """
    lifts = np.array(lifts, dtype=object)
    out = ch.frame_contract(np.asarray(scn.ctx.H(point), dtype=object),
                            lifts, lifts, lifts)
    om = omega_two_form(scn, point)
    for a, xf in enumerate(scn.ea.xi):
        o = lifts @ om[a] @ lifts.T
        w = np.asarray(xf(point), dtype=object) @ lifts.T
        out = out + ch.wedge(o, w, 2, 1)
    return out


def reduced_metric_components(scn: QuotientScenario, qpoint,
                              sign: int = +1) -> np.ndarray:
    """Quotient metric components from tau_sign lifts.

    The two restrictions give the same quotient metric; comparing them is a
    consistency check on the horizontal geometry.
    """
    return _lifted_metric(scn, qpoint, sign)[2]


def reduced_metric_field(scn: QuotientScenario) -> ch.ChartField:
    """The reduced metric as a field on the quotient chart (dual-safe)."""
    m = scn.reduced_dim

    def fn(coords):
        p = scn.lift(coords)
        lifts = horizontal_lift(scn, p, +1, np.eye(m))
        return ch.frame_contract(np.asarray(scn.ctx.g(p), dtype=object),
                                 lifts, lifts)
    return ch.batch_field(scn.quotient, ch.METRIC, fn, name="g_red")


def reduced_flux_field(scn: QuotientScenario) -> ch.ChartField:
    """The reduced flux as a 3-form field on the quotient chart."""
    m = scn.reduced_dim
    if m <= 2:
        return zero_flux(scn.quotient)

    def fn(coords):
        p = scn.lift(coords)
        return _reduced_flux(scn, p, horizontal_lift(scn, p, +1, np.eye(m)))
    return ch.batch_field(scn.quotient, ch.form_valence(3), fn, name="H_red")


def reduced_context(scn: QuotientScenario) -> GeneralizedMetricContext:
    return GeneralizedMetricContext(reduced_metric_field(scn),
                                    reduced_flux_field(scn))


def reduced_bismut(scn: QuotientScenario, xq: ch.ChartField,
                   yq: ch.ChartField, zq: ch.ChartField, qpoint) -> np.ndarray:
    """g(grad^-_{X^+} Y^-, Z^-) at lift(qpoint) per node, from ambient data.

    X^+ is the tau_+ lift of [X]; Y^-, Z^- are tau_- lifts, differentiated
    as genuine ambient fields through the lift solve.  Cross-check:
    :func:`reduced_bismut_direct`.
    """
    p = scn.lift(qpoint)
    xplus, zminus = (dual.tighten(horizontal_lift(
        scn, p, sign, [np.asarray(f(qpoint), dtype=object)]),
        dual.nodes(p))[:, 0] for sign, f in ((+1, xq), (-1, zq)))
    yfield = lifted_field(scn, yq, -1)
    jy = ch.differentiate(yfield, p, order=1, chart=scn.ctx.chart)
    geo = Geometry(scn.ctx, p)
    coeffs = bismut_connection_coeffs(-1, geo)
    nab = ch.node_einsum("j,ji->i", xplus, jy.d1) \
        + ch.node_einsum("ijk,j,k->i", coeffs, xplus, jy.value)
    return ch.node_einsum("j,j->", ch.node_einsum("i,ij->j", nab, geo.g),
                          zminus)


def reduced_bismut_direct(scn: QuotientScenario, xq, yq, zq,
                          qpoint) -> np.ndarray:
    """Same pairing computed on the quotient chart from (g_red, H_red)."""
    ctx = reduced_context(scn)
    nab = bismut_derivative(xq, yq, -1, ctx, qpoint)
    return ch.node_einsum("j,j->", ch.node_einsum(
        "i,ij->j", nab, ctx.metric_at(qpoint)), field_values(zq, qpoint))


def quotient_frame(scn: QuotientScenario, qpoint) -> np.ndarray:
    """Deterministic g_red-orthonormal basis of the quotient tangent space
    (one per node, on a leading axis)."""
    gred = _lifted_metric(scn, qpoint, +1)[2]
    return ch.orthonormal_frame(np.eye(scn.reduced_dim), gred,
                                scn.reduced_dim, "quotient frame")


class LiftedPoint:
    """One quotient sample: q, p = lift(q), the ambient Geometry at p, the
    g_red-orthonormal frame ``basis``, its tau_pm lifts ``plus`` (from the
    tau_+ lifts g_red is built on) and ``minus``, one :func:`action_jet` and
    the reduction matrices ``rm`` of the Geometry's g and the jet's V and xi,
    node axes first (of 1 at a plain point).  The code under test shares one
    per sample; each oracle builds its own data from (scn, q, basis)."""

    def __init__(self, scn: QuotientScenario, q):
        self.geo, lifts, gred = _lifted_metric(scn, q, +1)
        self.scn, self.q, self.p = scn, q, self.geo.point
        m = scn.reduced_dim
        self.basis = ch.orthonormal_frame(np.eye(m), gred, m,
                                          "quotient frame")
        self.plus = ch.node_einsum("ai,ij->aj", self.basis, lifts)
        self.minus = dual.tighten(horizontal_lift(
            scn, self.p, -1, dual.entries(self.basis)), dual.nodes(self.p))
        self.jet = action_jet(scn.ea, scn.ctx, self.p)
        self.rm = reduction_matrices(self.geo.g, self.geo.ginv,
                                     self.jet.value[:, 0], self.jet.value[:, 1])


def _minus_derivative_matrix(geo: Geometry, jet: ch.PointJet):
    """D[a, j, i] = (grad^-_j V_a^-)^i at the Geometry's point, from its
    g^-1 and jet of g and the point's :func:`action_jet`: V^- = V - g^-1 xi
    and d_j V^- = d_j V - g^-1 (d_j xi - d_j g g^-1 xi); no jet is taken."""
    v, x = jet.value[:, 0], jet.value[:, 1]
    dv, dx = jet.d1[:, :, 0], jet.d1[:, :, 1]      # [N, j, a, i]
    gx = ch.node_einsum("il,al->ai", geo.ginv, x)
    dgx = dx - ch.node_einsum("jlm,am->jal", geo.jet().d1, gx)
    dvm = dv - ch.node_einsum("il,jal->jai", geo.ginv, dgx)
    return dvm.swapaxes(1, 2) + ch.node_einsum(
        "ijk,ak->aji", bismut_connection_coeffs(-1, geo), v - gx)


def reduced_curvature_quotient(lp: LiftedPoint) -> np.ndarray:
    """Reduced curvature on aligned frames, from ambient data only.

    In operator slots on the sample's quotient basis, assembled from three
    ambient ingredients: the ambient torsion curvature on (tau_+, tau_+,
    tau_-, tau_-) lifts, a mixed term quadratic in the tau_pm connection
    2-forms, and a vertical-derivative correction weighted by the inverse
    of T_ab.  Cross-check: :func:`reduced_curvature_direct` with the same
    basis.  A batch sample gives a leading node axis.
    """
    geo, plus, minus, rm = lp.geo, lp.plus, lp.minus, lp.rm
    term1 = ch.operator_slots(bismut_curvature(-1, geo), plus, plus, minus,
                              minus)

    dxi_p, dxi_m = d_constraint_rows(lp.jet)
    om_p = ch.node_einsum("aij,bi,cj->abc", dxi_p, plus, plus)
    om_m = ch.node_einsum("aij,ci,dj->acd", dxi_m, minus, minus)
    term2 = -0.5 * ch.node_einsum("ab,axy,bzw->xyzw", rm.Kinv, om_p, om_m)

    dmat = _minus_derivative_matrix(geo, lp.jet)  # [a, j, i]
    # edge[a, mu, rho] = g(X^-_rho, grad^-_{X^+_mu} V_a^-)
    edge = ch.node_einsum("aji,mj,ik,rk->amr", dmat, plus, geo.g, minus)
    term3 = (ch.node_einsum("ab,anz,bmw->mnzw", rm.Tinv, edge, edge)
             - ch.node_einsum("ab,amz,bnw->mnzw", rm.Tinv, edge, edge))
    return term1 + term2 + term3


def reduced_curvature_direct(scn: QuotientScenario, qpoint,
                             basis) -> np.ndarray:
    """Torsion curvature of (g_red, H_red) computed on the quotient chart
    (with a leading node axis)."""
    basis = np.asarray(basis, dtype=float)
    rarr = bismut_curvature(-1, Geometry(reduced_context(scn), qpoint))
    return ch.operator_slots(rarr, basis, basis, basis, basis)


def oneill_curvature(scn: QuotientScenario, qpoint, basis) -> np.ndarray:
    """Independent submersion-curvature oracle for the flux-free case.

    Uses the classical fundamental-tensor formula: base curvature equals
    ambient curvature on horizontal lifts plus terms quadratic in
    A_XY = (1/2) vert([X_lift, Y_lift]).  Only valid when all xi vanish and
    there is no flux, where tau_+ = tau_- is the orthogonal horizontal
    space.  It takes its own order-2 jet of g at lift(qpoint).  A batch
    quotient point (and a basis with a leading node axis) gives a
    leading node axis.
    """
    ea, ctx = scn.ea, scn.ctx
    basis = np.asarray(basis, dtype=float)
    m = basis.shape[-2]
    p = scn.lift(qpoint)
    size = dual.nodes(p)
    gmat, vvals = (dual.tighten(a, size) for a in _action_rows(ea, ctx, p)[:2])
    vg = ch.node_einsum("ai,ij->aj", vvals, gmat)
    graminv = ch.inverse(ch.node_einsum("aj,bj->ab", vg, vvals), RankError,
                         "Gram matrix of the V_a")
    qvecs = dual.entries(basis)
    lifts = dual.tighten(horizontal_lift(scn, p, +1, qvecs), size)

    jets = [ch.differentiate(lifted_field(scn, ch.batch_field(
        scn.quotient, ch.VECTOR, lambda c, w=w: w, name=f"E{i}"), +1), p)
        for i, w in enumerate(qvecs)]

    def vert(w):
        return ch.node_einsum("ai,ab,bj,j->i", vvals, graminv, vg, w)

    amat = np.zeros((size, m, m, vvals.shape[-1]))
    for i, j in itertools.combinations(range(m), 2):
        br = ch.lie_bracket(jets[i], jets[j])
        amat[:, i, j] = 0.5 * vert(np.asarray(br, dtype=float))
        amat[:, j, i] = -amat[:, i, j]

    rarr = Geometry(ctx, p).R       # its own, not the sample's
    base = ch.operator_slots(rarr, lifts, lifts, lifts, lifts)
    inner = ch.node_einsum("abi,ij,cdj->abcd", amat, gmat, amat)
    return (base - 2.0 * inner
            + np.einsum("...nrms->...mnrs", inner)
            - np.einsum("...mrns->...mnrs", inner))
