"""Reduction cases that the built-in scenarios do not cover.

The built-ins have s = 1 wherever xi is nonzero, and r = 1, so a swapped
stacking axis cannot show on them.  ``two_generator_action`` carries two
generators with nonzero 1-forms and ``two_constraint_section`` two
nonlinear constraints.  Only the algebra is exercised: the action need not
be valid.
"""

import numpy as np

from ggred import chart as ch
from ggred import quotient as qt
from ggred import submanifold as sm
from ggred.chart import COVECTOR, SCALAR, VECTOR, Chart, ChartField
from ggred.dual import cos, sin
from ggred.genmetric import GeneralizedMetricContext
from ggred.scenarios import antisym3, s3xt2


def two_generator_action():
    """s3xt2 with a second generator and 1-form over a 3-dimensional
    quotient chart (theta, phi, t2), so that the tau lifts are square."""
    s = s3xt2({}).quotient
    box = s.ctx.chart
    v2 = ChartField(box, VECTOR,
                    lambda c: [0.0, 0.2 * sin(c[1]), 0.0, 1.0, 0.3],
                    name="w")
    x2 = ChartField(box, COVECTOR,
                    lambda c: [0.6 * cos(c[0]), 0.0, 0.4, 0.0, 0.0],
                    name="eta")
    ea = qt.ExtendedAction((s.ea.V[0], v2), (s.ea.xi[0], x2))
    qchart = Chart("s2xS1", (box.lower[0], box.lower[1], box.lower[4]),
                   (box.upper[0], box.upper[1], box.upper[4]))
    return qt.QuotientScenario(
        s.ctx, ea, qchart, lambda c: [c[0], c[1], c[4]],
        lambda q: [q[0], q[1], 2.0, 1.0, q[2]])


def two_constraint_section():
    """|x|^2 - 1 and x z in flat R^3 with constant flux; the zero locus
    contains the circle x = 0, which the locus chart parametrizes."""
    box = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))
    g = ChartField(box, ch.METRIC, lambda c: np.eye(3), name="flat")
    h = ChartField(box, ch.form_valence(3),
                   lambda c: antisym3(3, (0, 1, 2), 0.5), name="const3")
    sd = sm.SectionData((
        ChartField(box, SCALAR,
                   lambda c: [c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - 1.0]),
        ChartField(box, SCALAR, lambda c: [c[0] * c[2]])))
    return sm.SubmanifoldScenario(
        GeneralizedMetricContext(g, h), sd, Chart("circle", (0.3,), (2.8,)),
        lambda u: [0.0, cos(u[0]), sin(u[0])])
