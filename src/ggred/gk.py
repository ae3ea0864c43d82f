"""Checks for pairs of almost complex structures compatible with (g, H).

A valid structure satisfies, pointwise: J^2 = -1, metric compatibility,
vanishing Nijenhuis torsion, parallelism under the matching torsion
connection, and the reality condition that makes the flux type (2,1)+(1,2)
with respect to both structures.  The reduction condition asks each J to
preserve its horizontal distribution, after which the structures descend to
the quotient chart and are re-validated there against the reduced data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import chart as ch
from . import dual
from . import quotient as qt
from .errors import ReductionConditionError
from .genmetric import (GeneralizedMetricContext, Geometry,
                        bismut_connection_coeffs)


@dataclass(frozen=True)
class BiHermitianData:
    """The two almost complex structures, as (1,1)-tensor fields J^i_j."""

    Jplus: ch.ChartField
    Jminus: ch.ChartField

    def pair(self):
        return ((+1, self.Jplus), (-1, self.Jminus))


def nijenhuis(jet: ch.PointJet) -> np.ndarray:
    """N[i, a, b] of the Nijenhuis tensor, from an order-1 jet of J."""
    jv = jet.value        # J^i_j
    dj = jet.d1           # dj[k, i, j] = d_k J^i_j
    t1 = np.einsum("la,lib->iab", jv, dj)
    t2 = np.einsum("lb,lia->iab", jv, dj)
    t3 = np.einsum("il,alb->iab", jv, dj)
    t4 = np.einsum("il,bla->iab", jv, dj)
    return t1 - t2 - t3 + t4


def nabla_j(sign, jet: ch.PointJet, geo: Geometry) -> np.ndarray:
    """(grad^sign_k J)^i_j from an order-1 jet of J at the point of ``geo``."""
    coeffs = bismut_connection_coeffs(sign, geo)
    return (jet.d1
            + np.einsum("ikl,lj->kij", coeffs, jet.value)
            - np.einsum("lkj,il->kij", coeffs, jet.value))


def flux_type_residual(j: ch.ChartField, ctx: GeneralizedMetricContext,
                       point, vecs) -> float:
    """Reality form of the (2,1)+(1,2) condition on given vector triples:
    H(JX,JY,Z) + H(JX,Y,JZ) + H(X,JY,JZ) = H(X,Y,Z)."""
    h = ctx.flux_at(point)
    jv = dual.tighten(np.asarray(j(point), dtype=object))

    def residual(x, y, z):
        jx, jy, jz = jv @ x, jv @ y, jv @ z
        return float(np.einsum("ijk,i,j,k->", h, jx, jy, z)
                     + np.einsum("ijk,i,j,k->", h, jx, y, jz)
                     + np.einsum("ijk,i,j,k->", h, x, jy, jz)
                     - np.einsum("ijk,i,j,k->", h, x, y, z))
    return ch.max_abs(residual(*v) for v in vecs)


def validate_bihermitian(bh: BiHermitianData, ctx: GeneralizedMetricContext,
                         points, rng=None,
                         tol: float = ch.EPS_ID) -> qt.ValidationReport:
    """Pointwise residuals of all structure conditions.

    Conditions reported: square (J^2 = -1), compatibility (g(JX,JY) =
    g(X,Y)), integrability (Nijenhuis), parallel (grad^pm J_pm = 0), and
    flux_type (the reality identity on random triples).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    res = {k: [] for k in ("square", "compatibility", "integrability",
                           "parallel", "flux_type")}
    n = ctx.chart.dim
    for p in points:
        geo = Geometry(ctx, p)
        for sign, j in bh.pair():
            # one jet per distinct field: J_- may be J_+ itself
            jet = jet if sign < 0 and j is bh.Jplus else \
                ch.differentiate(j, p, order=1)
            jv = jet.value
            res["square"].append(jv @ jv + np.eye(n))
            res["compatibility"].append(jv.T @ geo.g @ jv - geo.g)
            res["integrability"].append(nijenhuis(jet))
            res["parallel"].append(nabla_j(sign, jet, geo))
            vecs = [tuple(rng.normal(size=(3, n))) for _ in range(4)]
            res["flux_type"].append(flux_type_residual(j, ctx, p, vecs))
    return qt.ValidationReport(
        {k: qt.ConditionResult(k, ch.max_abs(v), tol) for k, v in res.items()})


def check_tau_invariance(bh: BiHermitianData, scn: qt.QuotientScenario,
                         point):
    """Operator norms of (1 - P_pm) J_pm P_pm; zero iff J_pm tau_pm = tau_pm.

    A non-finite entry of J_pm raises EvaluationError naming the point."""
    out = []
    for sign, j in bh.pair():
        proj = qt.tau_projector(scn.ea, scn.ctx, point, sign)
        jv = dual.tighten(np.asarray(j(point), dtype=object))
        ch._require_finite(point, jv.ravel().tolist())
        defect = (np.eye(scn.ambient_dim) - proj) @ jv @ proj
        out.append(float(np.linalg.norm(defect, 2)))
    return tuple(out)


def reduced_j_field(bh: BiHermitianData, scn: qt.QuotientScenario,
                    sign: int) -> ch.ChartField:
    """The almost complex structure pushed to the quotient chart.

    At each quotient point, lift the coordinate frame into tau_sign, apply
    J, and read the result back through d(project).
    """
    j = bh.Jplus if sign > 0 else bh.Jminus
    m = scn.reduced_dim

    def fn(coords):
        p = scn.lift(coords)
        lifts = qt.horizontal_lift(scn, p, sign, np.eye(m))
        jv = np.asarray(j(p), dtype=object)
        return qt.project_jacobian(scn, p) @ (jv @ lifts.T)
    return ch.ChartField(scn.quotient, ch.Valence(1, 1), fn,
                         name=f"J{'+' if sign > 0 else '-'}_red")


def reduce_gk(bh: BiHermitianData, scn: qt.QuotientScenario, qpoint,
              rng=None, tol: float = ch.EPS_ID):
    """Reduced structures at a quotient point plus their validation.

    Requires the invariance defects to vanish at the lifted point; returns
    (J_red_plus, J_red_minus, report) where the report validates the
    reduced pair against the reduced metric and flux on the quotient chart.
    """
    p = scn.lift(qpoint)
    dplus, dminus = check_tau_invariance(bh, scn, p)
    if not ch.max_abs((dplus, dminus)) <= tol:
        raise ReductionConditionError(
            f"structure does not preserve the horizontal spaces "
            f"(defects {dplus:.2e}, {dminus:.2e})")
    jr_plus = reduced_j_field(bh, scn, +1)
    jr_minus = reduced_j_field(bh, scn, -1)
    ctxr = qt.reduced_context(scn)
    report = validate_bihermitian(BiHermitianData(jr_plus, jr_minus), ctxr,
                                  [qpoint], rng=rng, tol=max(tol, 1e-6))
    jp = dual.tighten(np.asarray(jr_plus(qpoint), dtype=object))
    jm = dual.tighten(np.asarray(jr_minus(qpoint), dtype=object))
    return jp, jm, report
