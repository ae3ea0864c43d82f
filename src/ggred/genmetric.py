"""Generalized tangent bundle operations on a chart.

Implements the natural pairing on TM + T*M, the flux-twisted Courant
bracket, the splitting into the +/- eigenbundles of the generalized metric,
the metric connections with totally antisymmetric torsion ("Bismut
connections"), their curvatures, and the identity expressing those
connections through the bracket.

Index conventions (fixed package-wide):

* ``(ginvH)(X, Y)^i = g^{il} H_{ljk} X^j Y^k``, so the torsion of the +/-
  connection is exactly +/- that vector;
* the curvature array convention is the one from :mod:`ggred.chart`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import chart as ch
from . import dual
from .errors import SingularMetricError

_H_ZERO_NAME = "zero-flux"


@dataclass
class GeneralizedVector:
    """A pair (vector part X, covector part xi) at a point of a chart."""

    X: np.ndarray
    xi: np.ndarray
    at: tuple

    def pairing(self, other: "GeneralizedVector") -> np.ndarray:
        """<X+xi, Y+eta> = xi(Y) + eta(X), one per node."""
        return np.einsum("...i,...i->...", self.xi, other.X) \
            + np.einsum("...i,...i->...", other.xi, self.X)


def field_values(field: ch.ChartField, point) -> np.ndarray:
    """Float components of a field at a point, node axis first."""
    return dual.tighten(np.asarray(field(point), dtype=object),
                        dual.nodes(point))


def zero_flux(chart: ch.Chart) -> ch.ChartField:
    n = chart.dim
    return ch.batch_field(chart, ch.form_valence(3),
                         lambda c: np.zeros((n, n, n)), name=_H_ZERO_NAME)


@dataclass(frozen=True)
class GeneralizedMetricContext:
    """A metric and a closed 3-form on a common chart."""

    g: ch.ChartField
    H: ch.ChartField

    @property
    def chart(self) -> ch.Chart:
        return self.g.chart

    @classmethod
    def create(cls, g: ch.ChartField, H: ch.ChartField | None = None):
        return cls(g, H if H is not None else zero_flux(g.chart))

    @property
    def has_flux(self) -> bool:
        return self.H.name != _H_ZERO_NAME

    def metric_at(self, point) -> np.ndarray:
        return field_values(self.g, point)

    def flux_at(self, point) -> np.ndarray:
        return field_values(self.H, point)

    def closure_residual(self, point):
        """max |dH| component at a point, one per node."""
        dh = ch.exterior_derivative(ch.differentiate(self.H, point), 3)
        return np.abs(dh).max(axis=(1, 2, 3, 4))


class Geometry:
    """g, g^-1, H, the jet of g, Gamma, R and the torsion terms of R^pm of a
    context at a point (node axis first), each computed once, on first use.
    The jet of g is of order 2 once curvature is asked for, and then also
    serves Gamma; g is read from the jet of g once it is held, and H from
    the jet of H that the torsion terms take.  Code under test shares one
    Geometry per sample; each oracle builds its own."""

    def __init__(self, ctx: GeneralizedMetricContext, point):
        self.ctx, self.point = ctx, point
        self._jet = None

    def jet(self, order: int = 1) -> ch.PointJet:
        """The jet of g, of order ``order`` at least."""
        if self._jet is None or (order == 2 and self._jet.d2 is None):
            self._jet = ch.differentiate(self.ctx.g, self.point, order=order)
        return self._jet

    def flux_jet(self) -> ch.PointJet:
        """An order-1 jet of H, which :func:`nabla_flux` takes once; H is
        read from it from then on, and the jet itself is not kept."""
        jet = ch.differentiate(self.ctx.H, self.point)
        vars(self).setdefault("H", jet.value)
        return jet

    @cached_property
    def g(self) -> np.ndarray:
        jet = self._jet
        return self.ctx.metric_at(self.point) if jet is None else jet.value

    @cached_property
    def ginv(self) -> np.ndarray:
        """The one float inverse of g, finite, symmetric and definite."""
        gmat = self.g
        finite = np.isfinite(gmat).reshape(-1, gmat.shape[-1] ** 2).all(1)
        if not finite.all():     # before NaN - NaN fails below
            at = ch._at(self.point, int(np.argmin(finite)))
            raise SingularMetricError("metric component matrix is not "
                                      f"finite at {at}, so not symmetric")
        if not np.max(np.abs(gmat - gmat.swapaxes(-1, -2))) <= ch.EPS_ID:
            raise SingularMetricError(
                "metric component matrix is not symmetric")
        return ch.inverse(gmat, definite=True)

    @cached_property
    def H(self) -> np.ndarray:
        return self.ctx.flux_at(self.point)

    @cached_property
    def gamma(self) -> np.ndarray:
        return ch.christoffel(self.jet(), self.ginv)

    @cached_property
    def R(self) -> np.ndarray:
        return ch.riemann(self.jet(order=2), self.ginv)

    @cached_property
    def torsion_terms(self):
        """The nabla-H and H-H terms of R^pm (see bismut_curvature)."""
        nh = nabla_flux(self)
        hup = np.einsum("...ijm,...mp->...ijp", self.H, self.ginv)
        term_dh = 0.5 * (np.einsum("...ijkl->...ijkl", nh)
                         - np.einsum("...jikl->...ijkl", nh))
        term_hh = 0.25 * (np.einsum("...kip,...jlp->...ijkl", self.H, hup)
                          - np.einsum("...kjp,...ilp->...ijkl", self.H, hup))
        return term_dh, term_hh


def flat_covector(ctx: GeneralizedMetricContext, x: ch.ChartField,
                  sign=1) -> ch.ChartField:
    """The 1-form field g(X) for a vector field X (-g(X) if sign < 0)."""
    def fn(coords):
        gx = np.asarray(ctx.g(coords), dtype=object) @ \
            np.asarray(x(coords), dtype=object)
        return gx if sign > 0 else -gx
    return ch.batch_field(ctx.chart, ch.COVECTOR, fn, name=f"flat({x.name})")


def courant_bracket(a_vec: ch.ChartField, a_cov: ch.ChartField,
                    b_vec: ch.ChartField, b_cov: ch.ChartField,
                    ctx: GeneralizedMetricContext, point) -> GeneralizedVector:
    """Flux-twisted Courant bracket of A = X + xi and B = Y + eta at a point.

    Vector part [X, Y]; covector part L_X eta - i_Y d xi + i_Y i_X H, from
    one order-1 jet of each field.  A batch point gives a leading node axis.
    """
    ctx.chart.require_inside(point)
    jx, jxi, jy, jeta = (ch.differentiate(f, point)
                         for f in (a_vec, a_cov, b_vec, b_cov))
    cov = (ch.lie_derivative(jx, jeta)
           - np.einsum("...j,...jk->...k", jy.value,
                       ch.exterior_derivative(jxi, 1))
           + ch.node_einsum("i,j,ijk->k", jx.value, jy.value,
                            ctx.flux_at(point)))
    return GeneralizedVector(np.asarray(ch.lie_bracket(jx, jy), dtype=float),
                             np.asarray(cov, dtype=float), tuple(point))


def split_pm(a: GeneralizedVector, ctx: GeneralizedMetricContext):
    """Split A into the +/- eigenbundle parts: X_pm = (X +/- g^{-1} xi) / 2.

    Reconstruction: A = (X_+ + g(X_+)) + (X_- - g(X_-)).
    """
    gxi = np.einsum("...ij,...j->...i", Geometry(ctx, a.at).ginv, a.xi)
    return 0.5 * (a.X + gxi), 0.5 * (a.X - gxi)


def _sgn(sign) -> float:
    if sign in (1, -1):
        return float(sign)
    raise ValueError(f"sign must be +1 or -1, got {sign!r}")


def bismut_derivative(x: ch.ChartField, y: ch.ChartField, sign,
                      ctx: GeneralizedMetricContext, point) -> np.ndarray:
    """(nabla^pm_X Y)^i = X^j d_j Y^i + Gamma^i_jk X^j Y^k
    +/- (1/2) g^{il} H_{ljk} X^j Y^k."""
    jy = ch.differentiate(y, point, order=1)
    coeffs = bismut_connection_coeffs(sign, Geometry(ctx, point))
    xval = field_values(x, point)
    return (np.einsum("...j,...ji->...i", xval, jy.d1)
            + ch.node_einsum("ijk,j,k->i", coeffs, xval, jy.value))


def bismut_connection_coeffs(sign, geo: Geometry):
    """Connection coefficients Gamma^(pm)i_{jk} (j = direction, k = argument)."""
    s = _sgn(sign)
    return geo.gamma + 0.5 * s * np.einsum("...il,...ljk->...ijk", geo.ginv,
                                           geo.H)


def bismut_via_courant(x: ch.ChartField, y: ch.ChartField, sign,
                       ctx: GeneralizedMetricContext, point) -> np.ndarray:
    """The bracket route to the same derivative.

    For the + connection: the +part of [X - g(X), Y + g(Y)]; for the -
    connection: the -part of [X + g(X), Y - g(Y)].  Returns the vector part,
    which agrees with :func:`bismut_derivative` to tight tolerance.
    """
    s = _sgn(sign)
    br = courant_bracket(x, flat_covector(ctx, x, -s), y,
                         flat_covector(ctx, y, s), ctx, point)
    plus, minus = split_pm(br, ctx)
    return plus if s > 0 else minus


def nabla_flux(geo: Geometry) -> np.ndarray:
    """Levi-Civita covariant derivative (nabla_a H)_{ijk}."""
    jet, gam = geo.flux_jet(), geo.gamma
    h = jet.value
    out = jet.d1.copy()
    out -= np.einsum("...mai,...mjk->...aijk", gam, h)
    out -= np.einsum("...maj,...imk->...aijk", gam, h)
    out -= np.einsum("...mak,...ijm->...aijk", gam, h)
    return out


def bismut_curvature(sign, geo: Geometry) -> np.ndarray:
    """Curvature of the +/- connection in the package array convention.

    For the - connection:
    R^-[ijkl] = R[ijkl] + (1/2)(nabla_i H_{jkl} - nabla_j H_{ikl})
                + (1/4) g^{pq} (H_{kip} H_{qjl} - H_{kjp} H_{qil});
    the + curvature flips the sign of the nabla-H term.  This is the
    torsion-corrected curvature written in the sphere-positive component
    convention of :func:`ggred.chart.riemann`; it agrees with the commutator
    curvature assembled from the connection coefficients, satisfies
    R^-[ijkl] = R^+[klij], and vanishes on the bi-invariant round 3-sphere
    at flux twice the unit volume form.  Both signs share the Geometry's
    R and torsion terms.
    """
    s = _sgn(sign)
    r = geo.R
    if not geo.ctx.has_flux:
        return r
    term_dh, term_hh = geo.torsion_terms
    return r - s * term_dh + term_hh


def bismut_curvature_commutator(sign, ctx: GeneralizedMetricContext,
                                point) -> np.ndarray:
    """Brute-force curvature from second derivatives of the connection.

    Independent oracle for :func:`bismut_curvature`: assembles
    grad_X grad_Y Z - grad_Y grad_X Z - grad_[X,Y] Z on coordinate fields
    and lowers it with the same array convention.
    """
    s = _sgn(sign)

    def coeffs(coords):
        # dual-safe: a ch.differentiate jet would carry a node axis here
        gmat = np.asarray(ctx.g(coords), dtype=object)
        ginv = ch.inverse(gmat)
        gam = ch.christoffel(ch.PointJet(tuple(coords), gmat,
                                         dual.gradient(ctx.g, coords)), ginv)
        hval = np.asarray(ctx.H(coords), dtype=object)
        return gam + 0.5 * s * np.einsum("il,ljk->ijk", ginv, hval)

    jet = ch.differentiate(coeffs, point, order=1)
    gam = jet.value
    dgam = jet.d1
    rop = (np.einsum("...ambc->...mcab", dgam)
           - np.einsum("...bmac->...mcab", dgam)
           + np.einsum("...mal,...lbc->...mcab", gam, gam)
           - np.einsum("...mbl,...lac->...mcab", gam, gam))
    gmat = ctx.metric_at(point)
    return np.einsum("...km,...mlij->...ijkl", gmat, rop)
