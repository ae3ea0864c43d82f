"""Built-in verification scenarios.

Every scenario bundles charts, fields and (where applicable) group action,
quotient maps, zero-locus data or almost complex structures.  Numeric
constants baked in below (the circle-bundle 1-form solved from the flux,
the flux scale that flattens the torsion connection on the round 3-sphere,
the conformal-flux scale of the standard even structure on the 4-dimensional
group block) were each determined by running the package's own residual
checks over a parameter sweep and then frozen; the tests re-verify them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import chart as ch
from .chart import Chart, ChartField, METRIC, VECTOR, COVECTOR, form_valence
from .dual import acos, atan2, cos, sin, sqrt
from .errors import ConfigError, GgredError, ScenarioError
from .genmetric import GeneralizedMetricContext, zero_flux
from .gk import BiHermitianData
from .quotient import ExtendedAction, QuotientScenario, zero_xi
from .submanifold import SectionData, SubmanifoldScenario

PI = float(np.pi)


_PERMS3 = [(p, ch._perm_sign(p)) for p in itertools.permutations((0, 1, 2))]
_PERMS4 = [(p, float(ch._perm_sign(p)))
           for p in itertools.permutations(range(4))]


def antisym3(n, axes, value):
    """Component array of value * dx^a ^ dx^b ^ dx^c inside dimension n."""
    out = np.empty((n, n, n), dtype=object)
    out[:] = 0.0
    for p, s in _PERMS3:
        idx = tuple(axes[k] for k in p)
        out[idx] = s * value
    return out


def int_param(params, key, default, scenario, positive=False):
    """An integer parameter; a fractional or non-finite value raises, and
    so does one below 1 when ``positive``."""
    v = params.get(key, default)
    if not float(v).is_integer() or (positive and v < 1):
        kind = "a positive integer" if positive else "an integer"
        raise ConfigError(f"{scenario}: {key} must be {kind}, got {v}")
    return int(v)


@dataclass
class Scenario:
    """A named bundle of charts, fields, and optional reduction data."""

    name: str
    ctx: GeneralizedMetricContext
    params: dict
    ea: ExtendedAction | None = None
    quotient: QuotientScenario | None = None
    section: SubmanifoldScenario | None = None
    gk: BiHermitianData | None = None
    euler_domain: tuple | None = None  # (lower, upper) for quadrature

    @property
    def chart(self) -> Chart:
        return self.ctx.chart


# ----------------------------------------------------------------------
# flat torus
# ----------------------------------------------------------------------

def flat_torus(params) -> Scenario:
    """Flat T^dim; with dim = 3 an optional constant 3-form flux."""
    dim = int_param(params, "dim", 2, "flat_torus")
    flux = float(params.get("flux", 0.0))
    if dim < 2 or dim > 4:
        raise ConfigError("flat_torus: dim must be 2, 3 or 4")
    if flux != 0.0 and dim != 3:
        raise ConfigError("flat_torus: flux requires dim = 3")
    box = Chart(f"torus{dim}", (0.0,) * dim, (2 * PI,) * dim)
    g = ChartField(box, METRIC, lambda c, d=dim: np.eye(d), name="flat")
    if flux:
        h = ChartField(box, form_valence(3),
                       lambda c: antisym3(3, (0, 1, 2), flux), name="const3")
    else:
        h = zero_flux(box)
    return Scenario("flat_torus", GeneralizedMetricContext(g, h), params,
                    euler_domain=(box.lower, box.upper))


# ----------------------------------------------------------------------
# round spheres
# ----------------------------------------------------------------------

def _sphere_metric(radius):
    def fn(c):
        return [[radius ** 2, 0.0], [0.0, radius ** 2 * sin(c[0]) ** 2]]
    return fn


def round_sphere(params) -> Scenario:
    """Round S^2 of given radius; factors = 2 gives the product S^2 x S^2."""
    radius = float(params.get("radius", 1.0))
    factors = int_param(params, "factors", 1, "round_sphere")
    if factors == 1:
        box = Chart("sphere", (0.05, 0.0), (PI - 0.05, 2 * PI))
        g = ChartField(box, METRIC, _sphere_metric(radius), name="round")
        ctx = GeneralizedMetricContext.create(g)
        return Scenario("round_sphere", ctx, params,
                        euler_domain=((0.0, 0.0), (PI, 2 * PI)))
    if factors == 2:
        box = Chart("sphere2", (0.05, 0.0, 0.05, 0.0),
                    (PI - 0.05, 2 * PI, PI - 0.05, 2 * PI))

        def gfn(c):
            r2 = radius ** 2
            return [[r2, 0.0, 0.0, 0.0],
                    [0.0, r2 * sin(c[0]) ** 2, 0.0, 0.0],
                    [0.0, 0.0, r2, 0.0],
                    [0.0, 0.0, 0.0, r2 * sin(c[2]) ** 2]]
        g = ChartField(box, METRIC, gfn, name="round x round")
        ctx = GeneralizedMetricContext.create(g)
        return Scenario("round_sphere", ctx, params,
                        euler_domain=((0.0, 0.0, 0.0, 0.0),
                                      (PI, 2 * PI, PI, 2 * PI)))
    raise ConfigError("round_sphere: factors must be 1 or 2")


# ----------------------------------------------------------------------
# circle bundle over the sphere (round S^3, optional flux), plus padding tori
# ----------------------------------------------------------------------

def _s3_block(c, radius):
    """Euler-angle components of the round 3-sphere metric of given radius.

    Coordinates (theta, phi, chi); the circle action advances chi.
    """
    r2 = 0.25 * radius ** 2
    cth = cos(c[0])
    return [[r2, 0.0, 0.0],
            [0.0, r2, r2 * cth],
            [0.0, r2 * cth, r2]]


# Flux lambda * vol(S^3); for radius 1 the chart volume form is
# sin(theta)/8 dtheta^dphi^dchi.  The bundle 1-form solved from
# d xi = i_V H along the symmetry ansatz is xi = -(lambda/8) cos(theta) dphi.
_S3_VOL_COEF = 1.0 / 8.0

# Flux scale making the torsion connections on the unit round S^3 flat:
# the probe over lambda found |R^-| = 0 exactly at lambda = +/- 2.
S3_FLAT_FLUX = 2.0


def hopf(params, torus_factors: int | None = None, name="hopf") -> Scenario:
    """Unit-S^3 circle bundle over S^2, optional flux and torus padding.

    Parameters: flux (the vol(S^3) scale), and for the padded variant
    cross_flux / xi_shift which turn on the genuinely twisted reduced
    geometry (nonzero reduced flux, tilted horizontal spaces).
    """
    lam = float(params.get("flux", 0.0))
    tor = int_param(params, "torus_factors", torus_factors or 0, name)
    cross = float(params.get("cross_flux", 0.0))
    shift = float(params.get("xi_shift", 0.0))
    brk_iso = float(params.get("break_isotropy", 0.0))
    brk_flux = float(params.get("break_flux", 0.0))
    brk_inv = float(params.get("break_invariance", 0.0))
    if tor not in (0, 2):
        raise ConfigError("hopf: torus_factors must be 0 or 2")
    if tor == 0 and (cross or shift):
        raise ConfigError("hopf: cross_flux / xi_shift need torus_factors=2")
    n = 3 + tor
    lo = [0.25, 0.2, 0.2] + [0.2] * tor
    hi = [PI - 0.25, 2 * PI - 0.2, 4 * PI - 0.2] + [2 * PI - 0.2] * tor
    box = Chart(f"s3{'xT2' if tor else ''}", tuple(lo), tuple(hi))

    def gfn(c):
        blk = _s3_block(c, 1.0)
        out = np.empty((n, n), dtype=object)
        out[:] = 0.0
        for i in range(3):
            for j in range(3):
                out[i, j] = blk[i][j]
        for t in range(3, n):
            out[t, t] = 1.0
        if brk_inv:
            out[0, 0] = out[0, 0] + brk_inv * sin(c[2])
        return out
    g = ChartField(box, METRIC, gfn, name="round bundle")

    def hfn(c):
        out = antisym3(n, (0, 1, 2), lam * sin(c[0]) * _S3_VOL_COEF)
        if cross:
            # extra closed invariant block dtheta ^ dphi ^ dt1
            extra = antisym3(n, (0, 1, 3), cross * sin(c[0]))
            out = out + extra
        return out
    h = ChartField(box, form_valence(3), hfn, name="bundle flux") \
        if (lam or cross) else zero_flux(box)
    ctx = GeneralizedMetricContext(g, h)

    vfield = ChartField(box, VECTOR,
                        lambda c: np.eye(n)[2], name="circle generator")

    def xifn(c):
        out = np.empty(n, dtype=object)
        out[:] = 0.0
        out[1] = -(lam * _S3_VOL_COEF) * cos(c[0])
        if shift:
            out[4] = shift
        if brk_iso:
            out[2] = out[2] + brk_iso       # closed, invariant, non-isotropic
        if brk_flux:
            out[1] = out[1] + brk_flux * c[0]   # d(theta dphi) != i_V H
        return out
    xif = ChartField(box, COVECTOR, xifn, name="bundle 1-form") \
        if (lam or shift or brk_iso or brk_flux) else zero_xi(box)
    ea = ExtendedAction((vfield,), (xif,))

    m = n - 1
    qlo = [lo[0], lo[1]] + lo[3:]
    qhi = [hi[0], hi[1]] + hi[3:]
    qchart = Chart(f"s2{'xT2' if tor else ''}", tuple(qlo), tuple(qhi))
    chi0 = 2.0

    def project(c):
        return [c[0], c[1]] + list(c[3:])

    def lift(q):
        return [q[0], q[1], chi0] + list(q[2:])

    scn = QuotientScenario(ctx, ea, qchart, project, lift, name=name)
    return Scenario(name, ctx, params, ea=ea, quotient=scn)


def hopf_flux(params) -> Scenario:
    p = dict(params)
    p.setdefault("flux", 1.0)
    return hopf(p, name="hopf_flux")


def s3xt2(params) -> Scenario:
    """S^3 x T^2 with circle action: nonzero reduced flux on S^2 x T^2."""
    p = dict(params)
    p.setdefault("flux", 1.0)
    p.setdefault("cross_flux", 0.7)
    p.setdefault("xi_shift", 0.5)
    p["torus_factors"] = 2
    return hopf(p, name="s3xt2")


# ----------------------------------------------------------------------
# product of a Kaehler sphere with a flat torus, torus action
# ----------------------------------------------------------------------

def product_qg(params) -> Scenario:
    """S^2 x T^2 with the torus acting on itself: a flat-bundle quotient.

    Carries the product Kaehler structure (both almost complex structures
    equal), so it doubles as the structure-preserving reduction scenario.
    """
    radius = float(params.get("radius", 1.0))
    jperturb = float(params.get("jplus_perturb", 0.0))
    box = Chart("s2xT2", (0.25, 0.2, 0.2, 0.2),
                (PI - 0.25, 2 * PI - 0.2, 2 * PI - 0.2, 2 * PI - 0.2))

    def gfn(c):
        r2 = radius ** 2
        return [[r2, 0.0, 0.0, 0.0],
                [0.0, r2 * sin(c[0]) ** 2, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0]]
    g = ChartField(box, METRIC, gfn, name="round x flat")
    ctx = GeneralizedMetricContext.create(g)

    v1 = ChartField(box, VECTOR, lambda c: np.eye(4)[2], name="t1")
    v2 = ChartField(box, VECTOR, lambda c: np.eye(4)[3], name="t2")
    ea = ExtendedAction((v1, v2), (zero_xi(box), zero_xi(box)))

    qchart = Chart("s2", (0.25, 0.2), (PI - 0.25, 2 * PI - 0.2))
    scn = QuotientScenario(ctx, ea, qchart,
                           lambda c: [c[0], c[1]],
                           lambda q: [q[0], q[1], 1.0, 2.0],
                           name="product_qg")

    def jfn(c):
        sth = sin(c[0])
        out = np.empty((4, 4), dtype=object)
        out[:] = 0.0
        out[0, 1] = -sth          # J(d_phi) = -sin(theta) d_theta
        out[1, 0] = 1.0 / sth     # J(d_theta) = d_phi / sin(theta)
        out[2, 3] = -1.0
        out[3, 2] = 1.0
        if jperturb:
            out[0, 1] = out[0, 1] + jperturb
        return out
    j = ChartField(box, ch.Valence(1, 1), jfn, name="product J")
    gk = BiHermitianData(j, j)
    return Scenario("product_qg", ctx, params, ea=ea, quotient=scn, gk=gk)


# ----------------------------------------------------------------------
# zero locus: unit sphere inside flat 3-space with constant flux
# ----------------------------------------------------------------------

def sphere_in_flat(params) -> Scenario:
    """sigma = |x|^2 - 1 in flat R^3, flux c dx^dy^dz; N = unit sphere."""
    c3 = float(params.get("c", 0.0))
    box = Chart("r3", (-1.6, -1.6, -1.6), (1.6, 1.6, 1.6))
    g = ChartField(box, METRIC, lambda c: np.eye(3), name="flat")
    h = ChartField(box, form_valence(3),
                   lambda c: antisym3(3, (0, 1, 2), c3), name="const3") \
        if c3 else zero_flux(box)
    ctx = GeneralizedMetricContext(g, h)

    sig = ChartField(box, ch.SCALAR,
                     lambda c: [c[0] ** 2 + c[1] ** 2 + c[2] ** 2 - 1.0],
                     name="radius constraint")
    sd = SectionData((sig,))

    nchart = Chart("s2", (0.3, -PI + 0.3), (PI - 0.3, PI - 0.3))

    def embed(u):
        th, ph = u[0], u[1]
        return [sin(th) * cos(ph), sin(th) * sin(ph), cos(th)]

    def unembed(p):
        r = sqrt(p[0] ** 2 + p[1] ** 2 + p[2] ** 2)
        return [acos(p[2] / r), atan2(p[1], p[0])]

    scn = SubmanifoldScenario(ctx, sd, nchart, embed, unembed,
                              name="sphere_in_flat")
    return Scenario("sphere_in_flat", ctx, params, section=scn)


# ----------------------------------------------------------------------
# the 4-dimensional group block S^3 x S^1 with its even structure
# ----------------------------------------------------------------------

# Conformal picture: a box in R^4 minus the origin carries g = delta / r^2
# (a cylinder metric: unit round S^3 times a line) and the two constant
# quaternionic complex structures.  The closed companion flux is
# a * r^{-4} * i_E vol_4 with E the radial field; the residual probe over
# a fixed the scale at a = +2 for grad^+ J_left = 0 and grad^- J_right = 0.
S3S1_FLUX_SCALE = 2.0

_J_LEFT = np.array([[0., -1., 0., 0.],
                    [1., 0., 0., 0.],
                    [0., 0., 0., -1.],
                    [0., 0., 1., 0.]])
_J_RIGHT = np.array([[0., -1., 0., 0.],
                     [1., 0., 0., 0.],
                     [0., 0., 0., 1.],
                     [0., 0., -1., 0.]])


def s3xs1_gk(params) -> Scenario:
    jperturb = float(params.get("jplus_perturb", 0.0))
    fluxscale = float(params.get("flux", S3S1_FLUX_SCALE))
    box = Chart("hopf4", (0.55, 0.55, 0.55, 0.55), (1.45, 1.45, 1.45, 1.45))

    def r2(c):
        return c[0] ** 2 + c[1] ** 2 + c[2] ** 2 + c[3] ** 2

    def gfn(c):
        inv = 1.0 / r2(c)
        out = np.empty((4, 4), dtype=object)
        out[:] = 0.0
        for i in range(4):
            out[i, i] = inv
        return out
    g = ChartField(box, METRIC, gfn, name="cylinder conformal")

    def hfn(c):
        scale = fluxscale / r2(c) ** 2
        out = np.empty((4, 4, 4), dtype=object)
        out.fill(scale * 0.0)
        # radial contraction of the volume form: (i_E vol)_{jkl} = x^i vol_{ijkl}
        for (i, j, k, l), sign in _PERMS4:
            out[j, k, l] = scale * (0.0 + sign * c[i])
        return out
    h = ChartField(box, form_valence(3), hfn, name="conformal flux")
    ctx = GeneralizedMetricContext(g, h)

    def jplus_fn(c):
        out = np.asarray(_J_LEFT.copy(), dtype=object)
        if jperturb:
            out[0, 1] = out[0, 1] + jperturb
        return out
    jp = ChartField(box, ch.Valence(1, 1), jplus_fn, name="left J")
    jm = ChartField(box, ch.Valence(1, 1), lambda c: _J_RIGHT.copy(),
                    name="right J")
    return Scenario("s3xs1_gk", ctx, params, gk=BiHermitianData(jp, jm),
                    euler_domain=(box.lower, box.upper))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

BUILTIN = {
    "flat_torus": flat_torus,
    "round_sphere": round_sphere,
    "hopf": hopf,
    "hopf_flux": hopf_flux,
    "product_qg": product_qg,
    "sphere_in_flat": sphere_in_flat,
    "s3xs1_gk": s3xs1_gk,
}

_HOPF_PARAMS = {"flux", "torus_factors", "cross_flux", "xi_shift", "points",
                "break_isotropy", "break_flux", "break_invariance"}

ALLOWED_PARAMS = {
    "flat_torus": {"dim", "flux", "points"},
    "round_sphere": {"radius", "factors", "order", "points"},
    "hopf": _HOPF_PARAMS,
    "hopf_flux": _HOPF_PARAMS,
    "product_qg": {"radius", "jplus_perturb", "points"},
    "sphere_in_flat": {"c", "points"},
    "s3xs1_gk": {"jplus_perturb", "flux", "order", "points"},
    "custom": set(),
}


def build(name: str, params: dict, factory: str | None = None) -> Scenario:
    """Instantiate a scenario by registry name (or dotted factory path)."""
    if name == "custom":
        if not factory:
            raise ConfigError("custom scenario needs a factory path "
                              "'module:function'")
        import importlib
        modname, _, fnname = factory.partition(":")
        if not fnname:
            raise ConfigError("factory must look like 'module:function'")
        try:
            fn = getattr(importlib.import_module(modname), fnname)
        except (ImportError, AttributeError) as exc:
            raise ConfigError(f"cannot load factory {factory!r}: {exc}") \
                from exc
        try:
            scenario = fn(params)
        except GgredError:
            raise
        except Exception as exc:    # a failed factory is a set-up error
            raise ScenarioError(f"factory {factory!r} raised "
                                f"{type(exc).__name__}: {exc}") from exc
        if not isinstance(scenario, Scenario):
            raise ScenarioError(f"factory {factory!r} returned a "
                                f"{type(scenario).__name__}, not a Scenario")
        return scenario
    if name not in BUILTIN:
        raise ConfigError(f"unknown scenario {name!r}")
    allowed = ALLOWED_PARAMS[name]
    unknown = set(params) - allowed
    if unknown:
        raise ConfigError(
            f"unknown parameter(s) {sorted(unknown)} for scenario {name!r}; "
            f"allowed: {sorted(allowed)}")
    return BUILTIN[name](params)
