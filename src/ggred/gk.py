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
                        bismut_connection_coeffs, field_values)


@dataclass(frozen=True)
class BiHermitianData:
    """The two almost complex structures, as (1,1)-tensor fields J^i_j."""

    Jplus: ch.ChartField
    Jminus: ch.ChartField

    def pair(self):
        return ((+1, self.Jplus), (-1, self.Jminus))


def nijenhuis(jet: ch.PointJet) -> np.ndarray:
    """N[i, a, b] of the Nijenhuis tensor, from an order-1 jet of J (with a
    leading node axis)."""
    jv = jet.value        # J^i_j
    dj = jet.d1           # dj[k, i, j] = d_k J^i_j
    t1 = ch.node_einsum("la,lib->iab", jv, dj)
    t2 = ch.node_einsum("lb,lia->iab", jv, dj)
    t3 = ch.node_einsum("il,alb->iab", jv, dj)
    t4 = ch.node_einsum("il,bla->iab", jv, dj)
    return t1 - t2 - t3 + t4


def nabla_j(sign, jet: ch.PointJet, geo: Geometry) -> np.ndarray:
    """(grad^sign_k J)^i_j from an order-1 jet of J at the point of ``geo``."""
    coeffs = bismut_connection_coeffs(sign, geo)
    return (jet.d1
            + ch.node_einsum("ikl,lj->kij", coeffs, jet.value)
            - ch.node_einsum("lkj,il->kij", coeffs, jet.value))


def flux_type_residual(jv, h, vecs):
    """Reality form of the (2,1)+(1,2) condition on given vector triples:
    H(JX,JY,Z) + H(JX,Y,JZ) + H(X,JY,JZ) = H(X,Y,Z), from J and H at a
    point, node axis first.  The largest |residual| over the triples, per
    node (``vecs`` is (T, 3, n), shared, or (nodes, T, 3, n))."""
    vecs = np.moveaxis(np.asarray(vecs, dtype=float), (-3, -2), (0, 1))

    def residual(x, y, z):
        jx, jy, jz = (ch.node_einsum("ij,j->i", jv, v) for v in (x, y, z))
        return (ch.node_einsum("ijk,i,j,k->", h, jx, jy, z)
                + ch.node_einsum("ijk,i,j,k->", h, jx, y, jz)
                + ch.node_einsum("ijk,i,j,k->", h, x, jy, jz)
                - ch.node_einsum("ijk,i,j,k->", h, x, y, z))
    return np.max(np.abs([residual(*v) for v in vecs]), axis=0, initial=0.0)


def validate_bihermitian(bh: BiHermitianData, ctx: GeneralizedMetricContext,
                         points, rng=None,
                         tol: float = ch.EPS_ID) -> qt.ValidationReport:
    """Pointwise residuals of all structure conditions.

    Conditions reported: square (J^2 = -1), compatibility (g(JX,JY) =
    g(X,Y)), integrability (Nijenhuis), parallel (grad^pm J_pm = 0), and
    flux_type (the reality identity on 4 random triples per structure and
    point, drawn from ``rng`` before any point is evaluated).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n = ctx.chart.dim

    def residuals(p, vecs):
        geo = Geometry(ctx, p)
        res = [[], [], [], [], []]
        for (sign, j), triples in zip(bh.pair(), np.moveaxis(vecs, -4, 0)):
            # one jet per distinct field: J_- may be J_+ itself
            jet = jet if sign < 0 and j is bh.Jplus else \
                ch.differentiate(j, p, order=1)
            jv = jet.value
            res[0].append(ch.node_einsum("ij,jk->ik", jv, jv) + np.eye(n))
            res[1].append(ch.node_einsum("ji,jk,kl->il", jv, geo.g, jv)
                          - geo.g)
            res[2].append(nijenhuis(jet))
            res[3].append(nabla_j(sign, jet, geo))
            res[4].append(flux_type_residual(jv, geo.H, triples))
        return res

    return qt.ValidationReport.sampled(
        residuals, dict.fromkeys(("square", "compatibility", "integrability",
                                  "parallel", "flux_type"), tol),
        points, rng.normal(size=(len(points), 2, 4, 3, n)))


def check_tau_invariance(bh: BiHermitianData, scn: qt.QuotientScenario,
                         point):
    """Operator norms of (1 - P_pm) J_pm P_pm; zero iff J_pm tau_pm = tau_pm.
    One per node, from its own g, g^-1, V and xi at the point.

    A non-finite entry of J_pm raises EvaluationError naming the point."""
    geo, out = Geometry(scn.ctx, point), []
    v, x = (np.stack([field_values(f, point) for f in fields], 1)
            for fields in (scn.ea.V, scn.ea.xi))
    for sign, j in bh.pair():
        proj = qt.tau_projector(geo.g, geo.ginv, v, x, sign)
        jv = field_values(j, point)
        ch._require_finite(point, jv)
        eye = np.eye(scn.ambient_dim)
        defect = ch.node_einsum("ij,jk,kl->il", eye - proj, jv, proj)
        out.append(np.linalg.norm(defect, 2, axis=(-2, -1)))
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
    return ch.batch_field(scn.quotient, ch.Valence(1, 1), fn,
                         name=f"J{'+' if sign > 0 else '-'}_red")


def reduce_gk(bh: BiHermitianData, scn: qt.QuotientScenario, qpoint,
              rng=None, tol: float = ch.EPS_ID):
    """Reduced structures at a quotient point plus their validation.

    Requires the invariance defects to vanish at the lifted point; returns
    (J_red_plus, J_red_minus, report) where the report validates the
    reduced pair against the reduced data and holds the largest defect
    (``tau_invariance``).  At a batch quotient point the structures carry
    a leading node axis and the report covers every node.
    """
    dplus, dminus = check_tau_invariance(bh, scn, scn.lift(qpoint))
    if not ch.max_abs((dplus, dminus)) <= tol:
        raise ReductionConditionError(
            f"structure does not preserve the horizontal spaces "
            f"(defects {np.max(dplus):.2e}, {np.max(dminus):.2e})")
    reduced = BiHermitianData(reduced_j_field(bh, scn, +1),
                              reduced_j_field(bh, scn, -1))
    jp, jm = (field_values(j, qpoint) for _, j in reduced.pair())
    report = validate_bihermitian(      # at the nodes of qpoint, as points
        reduced, qt.reduced_context(scn),
        dual.tighten(list(qpoint), dual.nodes(qpoint)), rng=rng,
        tol=max(tol, 1e-6))
    report.conditions["tau_invariance"] = qt.ConditionResult(
        "tau_invariance", ch.max_abs((dplus, dminus)), tol)
    return jp, jm, report
