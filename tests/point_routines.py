"""Routines that take what a sample holds, called at a bare point.

``chart.christoffel`` and ``chart.riemann`` take a jet of g and the g^-1
that a ``genmetric.Geometry`` tests and inverts, ``submanifold.t_matrix``
takes a jet of sigma and that g^-1, ``chart.lie_bracket`` takes two jets,
and ``quotient.reduction_matrices``, ``quotient.omega_curvature``,
``quotient.tau_projector`` and ``quotient.horizontal_frames`` take the g,
g^-1, V, xi and action jet that the sample or the check holds.  Each
helper here evaluates them at the point first, by value, and passes them
on.
"""

from ggred import chart as ch
from ggred import dual
from ggred import genmetric as gm
from ggred import quotient as qt
from ggred import submanifold as sm


def metric_inverse(jet):
    """g^-1 of a jet of g, from a Geometry at the jet's point that holds
    the jet's g (its finite, symmetric and definite tests included)."""
    geo = gm.Geometry(None, jet.point)     # only g is read
    geo.g = jet.value
    return geo.ginv


def christoffel_of(jet):
    """Gamma of a jet of g, with the g^-1 of :func:`metric_inverse`."""
    return ch.christoffel(jet, metric_inverse(jet))


def riemann_of(jet):
    """R of an order-2 jet of g, with the g^-1 of :func:`metric_inverse`."""
    return ch.riemann(jet, metric_inverse(jet))


def t_matrix_at(sd, ctx, point):
    """T^{ab} and its inverse from the jet of sigma and the g^-1 of a
    Geometry at the point."""
    return sm.t_matrix(sd.jet(point), gm.Geometry(ctx, point).ginv)


def bracket_at(x, y, point):
    """[X, Y] of two fields from their order-1 jets at the point."""
    return ch.lie_bracket(ch.differentiate(x, point),
                          ch.differentiate(y, point))


def held_at(ea, ctx, point):
    """g, g^-1 (with no definiteness test), V and xi evaluated at the
    point, node axis first."""
    gmat, v, x = (dual.tighten(a, dual.nodes(point))
                  for a in qt._action_rows(ea, ctx, point))
    return gmat, ch.inverse(gmat), v, x


def matrices_at(ea, ctx, point):
    """The reduction matrices of g, g^-1, V and xi evaluated at the point."""
    return qt.reduction_matrices(*held_at(ea, ctx, point))


def projector_at(ea, ctx, point, sign):
    """The tau_sign projector of g, g^-1, V and xi evaluated at the point."""
    return qt.tau_projector(*held_at(ea, ctx, point), sign)


def frames_at(ea, ctx, point):
    """The tau_pm frames of g, g^-1, V and xi evaluated at the point."""
    return qt.horizontal_frames(*held_at(ea, ctx, point))


def omega_at(ea, ctx, sign, point, frame):
    """Both routes of the tau_sign curvature, with the point's own action
    jet and reduction matrices."""
    return qt.omega_curvature(ea, ctx, sign, point, frame,
                              qt.action_jet(ea, ctx, point),
                              matrices_at(ea, ctx, point))
