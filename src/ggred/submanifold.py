"""Reduction to the zero locus of a regular section.

With sigma: ambient -> R^r cutting out N = sigma^{-1}(0), the torsion
connection and curvature of the induced geometry on N are expressed through
ambient data (the transverse Gram matrix of d sigma and second covariant
derivatives of sigma) and cross-checked against direct computation on a
parametrizing chart of N.  Curvature arrays are returned in the operator
slots of :func:`ggred.chart.operator_slots`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import chart as ch
from . import dual
from .errors import RankError, ScenarioError, TangencyError
from .genmetric import (GeneralizedMetricContext, Geometry,
                        bismut_connection_coeffs, bismut_curvature,
                        field_values, zero_flux)

EPS_LOCUS = 1e-8


@dataclass(frozen=True)
class SectionData:
    """Scalar constraint functions sigma^alpha on the ambient chart."""

    sigma: tuple[ch.ChartField, ...]

    @property
    def r(self) -> int:
        return len(self.sigma)

    def values(self, point):
        """sigma^alpha at a point, node axis first."""
        return dual.tighten([dual.body(np.asarray(s(point), dtype=object)
                                       .ravel()[0]) for s in self.sigma],
                            dual.nodes(point))

    def jet(self, point, order: int = 1) -> ch.PointJet:
        """One jet of all sigma^alpha: the last axis of every part is alpha."""
        return ch.differentiate(
            lambda c: [np.asarray(s(c), dtype=object).ravel()[0]
                       for s in self.sigma],
            point, order=order, chart=self.sigma[0].chart)

    def gradients(self, point) -> np.ndarray:
        """The r x n rows d sigma^alpha in C order (dual-safe; node axis
        first)."""
        return _gradients(self.jet(point))


def _gradients(jet: ch.PointJet) -> np.ndarray:
    """The r x n rows d sigma^alpha of a jet of all sigma^alpha, C order."""
    return np.ascontiguousarray(jet.d1.swapaxes(-1, -2))


def t_matrix(jet: ch.PointJet, ginv):
    """Transverse Gram matrix T^{ab} = dsigma^a . g^{-1} . dsigma^b and its
    inverse at a zero-locus point, from a jet of all sigma^alpha and g^-1."""
    if not np.max(np.abs(jet.value)) <= EPS_LOCUS:
        raise TangencyError("t_matrix needs a point on the zero locus")
    grads = _gradients(jet)
    tup = ch.node_einsum("ai,ij,bj->ab", grads, ginv, grads)
    return tup, ch.inverse(tup, RankError, "transverse Gram matrix of "
                           "d sigma", definite=True)


@dataclass(frozen=True)
class SubmanifoldScenario:
    """Ambient data plus a parametrizing chart of the zero locus."""

    ctx: GeneralizedMetricContext
    sd: SectionData
    nchart: ch.Chart
    embed: Callable
    unembed: Callable | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "embed", dual.per_node(self.embed))

    @property
    def ambient_dim(self) -> int:
        return self.ctx.chart.dim

    @property
    def locus_dim(self) -> int:
        return self.nchart.dim

    def check_maps(self, rng, n: int = 5, tol: float = 1e-10):
        """sigma(embed(u)) = 0 and a full tangent frame on n samples."""
        u = [dual.Batch(x) for x in self.nchart.sample(rng, n).T]
        worst = ch.max_abs([self.sd.values(self.embed(u))])
        try:
            tangent_frame(self, u)
        except RankError as exc:
            raise ScenarioError(f"embedding jacobian: {exc}") from exc
        if not worst <= tol:
            raise ScenarioError(
                f"embedding misses the zero locus by {worst:.2e}")
        return worst


class LocusPoint:
    """One zero-locus sample: u, p = embed(u) (embedded once), the ambient
    Geometry at p, the tangent frame ``basis`` of the Geometry's g, one
    order-2 jet of all sigma^alpha with its gradient rows ``grads``, and
    the inverse ``tlow`` of the transverse Gram matrix, each with a leading
    node axis (of 1 at a plain point).  The code under test shares one per
    sample; each oracle builds its own data from (scn, u, basis)."""

    def __init__(self, scn: SubmanifoldScenario, u):
        self.scn, self.u, self.p = scn, u, scn.embed(u)
        self.geo = Geometry(scn.ctx, self.p)
        self.basis = _tangent_frame(scn, u, self.geo.g)
        self.jet = scn.sd.jet(self.p, order=2)
        self.grads = _gradients(self.jet)
        _, self.tlow = t_matrix(self.jet, self.geo.ginv)


def embed_jacobian(scn: SubmanifoldScenario, u):
    """d(embed) columns at a locus-chart point (dual-safe)."""
    return dual.gradient(scn.embed, list(u)).T


def tangent_frame(scn: SubmanifoldScenario, u) -> np.ndarray:
    """Deterministic g-orthonormal frame of TN at embed(u), ambient rows
    (one per node, on a leading axis)."""
    return _tangent_frame(scn, u, scn.ctx.metric_at(scn.embed(u)))


def _tangent_frame(scn: SubmanifoldScenario, u, gmat) -> np.ndarray:
    """:func:`tangent_frame` on the metric ``gmat`` at embed(u)."""
    demb = dual.tighten(embed_jacobian(scn, u), dual.nodes(u))
    return ch.orthonormal_frame(demb.swapaxes(1, 2), gmat,
                                scn.locus_dim, "tangent frame")


def induced_metric_field(scn: SubmanifoldScenario) -> ch.ChartField:
    def fn(u):
        p = scn.embed(u)
        frame = embed_jacobian(scn, u).T
        return ch.frame_contract(np.asarray(scn.ctx.g(p), dtype=object),
                                 frame, frame)
    return ch.batch_field(scn.nchart, ch.METRIC, fn, name="induced g")


def induced_flux_field(scn: SubmanifoldScenario) -> ch.ChartField:
    m = scn.locus_dim
    if m <= 2:
        return zero_flux(scn.nchart)

    def fn(u):
        hval = np.asarray(scn.ctx.H(scn.embed(u)), dtype=object)
        frame = embed_jacobian(scn, u).T
        return ch.frame_contract(hval, frame, frame, frame)
    return ch.batch_field(scn.nchart, ch.form_valence(3), fn, name="induced H")


def induced_context(scn: SubmanifoldScenario) -> GeneralizedMetricContext:
    return GeneralizedMetricContext(induced_metric_field(scn),
                                    induced_flux_field(scn))


def nabla_pm_dsigma(jet: ch.PointJet, sign: int,
                    geo: Geometry) -> np.ndarray:
    """M[alpha, i, j] = (grad^sign_i d sigma^alpha)_j from an order-2 jet of
    all sigma^alpha at the ambient point of ``geo``."""
    coeffs = bismut_connection_coeffs(sign, geo)
    return np.moveaxis(jet.d2, 3, 1) - ch.node_einsum("lij,la->aij", coeffs,
                                                       jet.d1)


def _require_tangent(grads, vecs, tol=ch.EPS_ID):
    """TangencyError unless the rows d sigma^alpha ``grads`` annihilate
    every row of ``vecs``."""
    if not ch.max_abs([ch.node_einsum("ai,bi->ab", grads,
                                      np.asarray(vecs))]) <= tol:
        raise TangencyError("field value not tangent to the locus")


def tangential_derivative(scn: SubmanifoldScenario, xbar: ch.ChartField,
                          ybar: ch.ChartField, u) -> np.ndarray:
    """Ambient components of the derivative of Y along X at embed(u).

    X, Y are locus-chart fields; Y is pushed to its ambient values along N
    and differentiated in the tangent direction only, which is all the
    reduced formulas consume (the normal extension is immaterial).
    """
    def ambient_y(coords_u):
        demb = embed_jacobian(scn, coords_u)
        yv = np.asarray(ybar(coords_u), dtype=object)
        return demb @ yv

    jet = ch.differentiate(ambient_y, u, order=1, chart=None)
    return ch.node_einsum("a,ai->i", field_values(xbar, u), jet.d1), jet.value


def reduced_connection_sub(scn: SubmanifoldScenario, xbar: ch.ChartField,
                           ybar: ch.ChartField, zbar: ch.ChartField,
                           u) -> np.ndarray:
    """g(grad^-_X Y, Z) at embed(u) for locus-tangent fields, per node.

    Equals the intrinsic torsion-connection pairing of the induced geometry;
    cross-checks: the two routes of :func:`reduced_connection_vector`, the
    transverse correction and the one-sided coefficient form.
    """
    p = scn.embed(u)
    dy, yv = tangential_derivative(scn, xbar, ybar, u)
    demb = dual.tighten(embed_jacobian(scn, u), dual.nodes(u))
    xv, zv = (ch.node_einsum("ia,a->i", demb, field_values(f, u))
              for f in (xbar, zbar))
    _require_tangent(scn.sd.gradients(p), np.stack([xv, zv, yv], 1))
    geo = Geometry(scn.ctx, p)
    coeffs = bismut_connection_coeffs(-1, geo)
    nab = dy + ch.node_einsum("ijk,j,k->i", coeffs, xv, yv)
    return ch.node_einsum("j,j->", ch.node_einsum("i,ij->j", nab, geo.g), zv)


def reduced_connection_vector(scn: SubmanifoldScenario, xbar, ybar,
                              u) -> np.ndarray:
    """The tangentially projected connection vector, two equivalent routes.

    Returns (corrected, coefficient_form): the ambient covariant derivative
    plus the transverse correction T_{ab} (Y, grad^-_X dsigma^b) g^{-1}
    dsigma^a, and the same vector assembled from the one-sided coefficient
    array Gamma^- + T g^{-1} dsigma grad^+ dsigma.  Both are tangent to N
    and equal to tight tolerance.
    """
    lp = LocusPoint(scn, u)
    dy, yv = tangential_derivative(scn, xbar, ybar, u)
    demb = dual.tighten(embed_jacobian(scn, u), dual.nodes(u))
    xv = ch.node_einsum("ia,a->i", demb, field_values(xbar, u))
    geo = lp.geo
    coeffs = bismut_connection_coeffs(-1, geo)
    nab = dy + ch.node_einsum("ijk,j,k->i", coeffs, xv, yv)

    mm = nabla_pm_dsigma(lp.jet, -1, geo)   # [a, i, j]
    corr = ch.node_einsum("ab,bjk,j,k,al,li->i", lp.tlow, mm, xv, yv,
                          lp.grads, geo.ginv)
    corrected = nab + corr

    mp = nabla_pm_dsigma(lp.jet, +1, geo)
    gamma_tilde = coeffs + ch.node_einsum("ab,il,al,bjk->ikj", lp.tlow,
                                          geo.ginv, lp.grads, mp)
    coeff_form = dy + ch.node_einsum("ikj,k,j->i", gamma_tilde, xv, yv)
    return corrected, coeff_form


def reduced_curvature_sub(lp: LocusPoint) -> np.ndarray:
    """Reduced curvature on the sample's tangent frame, from ambient data.

    In operator slots: the ambient torsion curvature restricted to the
    frame plus a transverse correction quadratic in grad^- d sigma.
    Cross-check: :func:`reduced_curvature_sub_direct` with the same basis.
    A batch sample gives a leading node axis.
    """
    basis, geo = lp.basis, lp.geo
    _require_tangent(lp.grads, basis)
    term1 = ch.operator_slots(bismut_curvature(-1, geo), basis, basis, basis,
                              basis)
    mm = nabla_pm_dsigma(lp.jet, -1, geo)
    # nb[a, m, r] = (E_r, grad^-_{E_m} d sigma^a)
    nb = ch.node_einsum("aij,mi,rj->amr", mm, basis, basis)
    term2 = (ch.node_einsum("ab,bnr,ams->mnrs", lp.tlow, nb, nb)
             - ch.node_einsum("ab,bmr,ans->mnrs", lp.tlow, nb, nb))
    return term1 + term2


def reduced_curvature_sub_direct(scn: SubmanifoldScenario, u,
                                 basis) -> np.ndarray:
    """Torsion curvature of the induced geometry, computed on the locus
    chart and expressed on the same ambient frame (with a leading node
    axis)."""
    basis = np.asarray(basis, dtype=float)
    demb = dual.tighten(embed_jacobian(scn, u), dual.nodes(u))
    # chart components e of the frame rows: demb^T demb e = demb^T row
    gram = ch.inverse(ch.node_einsum("ia,ib->ab", demb, demb), RankError,
                      "Gram matrix of d(embed)")
    coords = ch.node_einsum("ab,ib,ri->ra", gram, demb, basis)
    rarr = bismut_curvature(-1, Geometry(induced_context(scn), u))
    return ch.operator_slots(rarr, coords, coords, coords, coords)


def gauss_equation_oracle(scn: SubmanifoldScenario, u,
                          basis) -> np.ndarray:
    """Independent flux-free oracle: the Gauss equation with the second
    fundamental form II(X, Y) = -T_{ab} (Y, grad_X dsigma^b) g^{-1}
    dsigma^a."""
    if scn.ctx.has_flux:
        raise ScenarioError("the Gauss oracle applies to flux-free data")
    basis = np.asarray(basis, dtype=float)
    p = scn.embed(u)
    geo = Geometry(scn.ctx, p)      # its own, not the formula's
    gmat, ginv = geo.g, geo.ginv
    term1 = ch.operator_slots(geo.R, basis, basis, basis, basis)
    jet = scn.sd.jet(p, order=2)    # T, the gradients and the Hessians
    _, tlow = t_matrix(jet, ginv)
    grads = _gradients(jet)
    hess = np.stack([jet.d2[..., a] - ch.node_einsum(
        "lij,l->ij", geo.gamma, jet.d1[..., a]) for a in range(scn.sd.r)], 1)
    # II(E_m, E_n) = -T_{ab} nb[b, m, n] g^{-1} dsigma^a
    nb = ch.node_einsum("aij,mi,nj->amn", hess, basis, basis)
    iivec = -ch.node_einsum("ab,bmn,al,li->mni", tlow, nb, grads, ginv)
    dots = ch.node_einsum("mni,ij,rsj->mnrs", iivec, gmat, iivec)
    # (II(X,W), II(Y,Z)) - (II(X,Z), II(Y,W)) in operator slots
    term2 = (np.einsum("...msnr->...mnrs", dots)
             - np.einsum("...mrns->...mnrs", dots))
    return term1 + term2
