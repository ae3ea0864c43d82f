"""Routines that take what a sample holds, called at a bare point.

``chart.lie_bracket`` takes two jets, and ``quotient.reduction_matrices`` and
``quotient.omega_curvature`` take the g, V, xi and action jet that the
sample or the check holds.  Each helper here evaluates them at the point
first, by value as the package evaluated them before, and passes them on.
"""

from ggred import chart as ch
from ggred import dual
from ggred import quotient as qt


def bracket_at(x, y, point):
    """[X, Y] of two fields from their order-1 jets at the point."""
    return ch.lie_bracket(ch.differentiate(x, point),
                          ch.differentiate(y, point))


def matrices_at(ea, ctx, point):
    """The reduction matrices of g, g^-1, V and xi evaluated at the point."""
    gmat, v, x = (dual.tighten(a, dual.nodes(point))
                  for a in qt._action_rows(ea, ctx, point))
    return qt.reduction_matrices(gmat, ch.metric_inverse(gmat), v, x)


def omega_at(ea, ctx, sign, point, frame):
    """Both routes of the tau_sign curvature, with the point's own action
    jet and reduction matrices."""
    return qt.omega_curvature(ea, ctx, sign, point, frame,
                              qt.action_jet(ea, ctx, point),
                              matrices_at(ea, ctx, point))
