"""Exact zero-dimensional localization over Grassmann algebras.

The component actions of the gauged and constrained sigma-models are
assembled pointwise as quadratic forms in even auxiliary unknowns with
Grassmann coefficients; the auxiliaries are eliminated exactly at their
stationary points; and the surviving quartic exponent in the zero-mode
generators is compared against the reduced-curvature contraction computed by
the geometry modules.  The same machinery integrates the fermionic density
whose quadrature gives the Euler characteristic.

Grassmann generator layout with m zero modes per chirality: generators
0..m-1 are the plus modes, m..2m-1 the minus modes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import chart as ch
from . import dual
from . import quotient as qt
from . import submanifold as sm
from .dual import Batch
from .errors import (FrameMismatchError, OddDimensionError, RankError,
                     SingularBodyError, SingularMetricError)
from .genmetric import GeneralizedMetricContext, Geometry, bismut_curvature
from .grassmann import GrassmannElement, berezin_integral

G = GrassmannElement


# ----------------------------------------------------------------------
# the Model-I quartic pairing and the fermionic Euler density
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _words(shape, factors):
    """Masks and signs of the generator products indexed by an array.

    Entry ``idx`` stands for theta_g0 theta_g1 ... with one factor per
    ``(offset, axis)`` pair of ``factors``: ``g_j = offset_j + idx[axis_j]``.
    Returns read-only arrays of ``shape``: the product's mask, its sign
    (+-1.0) once sorted into ascending order, and whether its generators
    are distinct.  The cache is bounded; callers use a handful of shapes.
    """
    grids = np.ix_(*(np.arange(k) for k in shape))
    gens = [off + grids[ax] for off, ax in factors]
    masks, inversions, valid = 0, 0, True
    for j, gj in enumerate(gens):
        masks = masks | (1 << gj)
        for gl in gens[j + 1:]:
            inversions = inversions + (gj > gl)
            valid = valid & (gj != gl)
    sign = np.where(inversions % 2, -1.0, 1.0)
    out = [np.array(a) for a in np.broadcast_arrays(masks, sign, valid)]
    for a in out:
        a.flags.writeable = False
    return tuple(out)


def _word_sum(ngen, coeffs, factors):
    """sum coeffs[idx] theta_g0 theta_g1 ..., assembled word by word.

    ``coeffs`` carries a leading node axis: each coefficient is a Batch.
    See :func:`_words` for ``factors``.  Terms are summed in the C order of
    ``coeffs``, as the explicit generator-product loop over its axes sums
    them.
    """
    masks, sign, valid = _words(coeffs.shape[1:], factors)
    keep = valid & coeffs.any(0)
    return G.from_terms(ngen, masks[keep].tolist(),
                        dual.entries((coeffs * sign)[:, keep]))


def curvature_quartic(rfr: np.ndarray, mplus: int, mminus: int | None = None
                      ) -> GrassmannElement:
    """The pairing (psi_-, R psi_-) as a Grassmann element.

    ``rfr`` is the frame-contracted curvature in raw component slots (the
    :func:`ggred.chart.riemann` convention), with the plus modes on the
    first two slots and the minus modes on the last two.  The product order
    is the interleaved one native to the component actions:
    (1/2) sum R[m,n,r,s] psi-_r psi+_m psi-_s psi+_n.
    """
    if mminus is None:
        mminus = mplus
    rfr = np.asarray(rfr, dtype=float)[:, :mplus, :mplus, :mminus, :mminus]
    # psi-_rho psi+_mu psi-_sig psi+_nu as (offset, axis) factors
    return _word_sum(mplus + mminus, 0.5 * rfr,
                     ((mplus, 2), (0, 0), (mplus, 3), (0, 1)))


def euler_measure(m: int) -> list[int]:
    """Berezin measure order pairing each plus mode with its minus mode."""
    order = []
    for mu in range(m):
        order.extend([mu, m + mu])
    return order


def euler_density(rarr: np.ndarray, gmat: np.ndarray):
    """Fermionic Gaussian density whose integral gives the Euler number.

    Contracts the curvature into a positively oriented orthonormal frame,
    exponentiates the quartic pairing, and Berezin-integrates against the
    paired measure.  The result carries no volume factor.  The leading
    node axis gives one density per node, from one Grassmann stage for all.
    """
    n = gmat.shape[-1]
    if n % 2:
        raise OddDimensionError("Euler density needs even dimension")
    try:    # Gram-Schmidt of the coordinate basis: lower triangular, oriented
        frame = ch.orthonormal_frame(np.eye(n), np.reshape(gmat, (-1, n, n)),
                                     n, "metric")
    except RankError as exc:
        raise SingularMetricError(
            "Euler density needs a positive definite metric") from exc
    rfr = ch.frame_contract(rarr, frame, frame, frame, frame)
    dens = berezin_integral((0.5 * curvature_quartic(rfr, n)).exp(),
                            euler_measure(n)).body
    return dual.tighten(dens, len(rfr))


def euler_characteristic(ctx: GeneralizedMetricContext, domain,
                         order: int) -> float:
    """Gauss-Legendre estimate of the Euler characteristic.

    ``domain`` is a (lower, upper) pair of coordinate bounds covering the
    manifold once; the integrand is the fermionic density of the torsion
    curvature (the plain curvature without flux) times the metric volume
    factor, normalized by (2 pi)^(dim/2).

    Each slab of order^2 nodes is one batch point, jets and Grassmann stage
    alike (a field with no batch form runs node by node inside itself,
    :func:`ggred.dual.per_node`); terms are summed in C order.
    """
    lo, hi = (np.asarray(domain[0], dtype=float),
              np.asarray(domain[1], dtype=float))
    n = lo.size
    if n % 2:
        raise OddDimensionError("Euler characteristic needs even dimension")
    # the quadrature cover may exceed the sampling chart; rebind the fields
    # onto a box that contains all nodes
    wide = ch.Chart("euler-cover", tuple(lo - 1e-9), tuple(hi + 1e-9))
    ctx = GeneralizedMetricContext(
        ch.ChartField(wide, ctx.g.valence, ctx.g.fn, name=ctx.g.name),
        ch.ChartField(wide, ctx.H.valence, ctx.H.fn, name=ctx.H.name))
    x1, w1 = np.polynomial.legendre.leggauss(order)
    nodes = [0.5 * (hi[a] + lo[a]) + 0.5 * (hi[a] - lo[a]) * x1
             for a in range(n)]
    weights = [0.5 * (hi[a] - lo[a]) * w1 for a in range(n)]

    def terms(p, w):
        geo = Geometry(ctx, p)
        rarr = bismut_curvature(-1, geo) if ctx.has_flux else geo.R
        return w * euler_density(rarr, geo.g) * \
            np.sqrt(ch.gauss_jordan(geo.g)[1])

    tail = list(np.indices((order, order)).reshape(2, -1))
    idx = ([np.full(order * order, i) for i in head] + tail
           for head in np.ndindex(*([order] * (n - 2))))
    slabs = ((np.stack([nodes[a][i[a]] for a in range(n)], axis=1),
              functools.reduce(np.multiply,
                               [weights[a][i[a]] for a in range(n)], 1.0))
             for i in idx)
    total = 0.0
    for t in dual.batched(terms, slabs):
        total += t
    return total / (2.0 * np.pi) ** (n // 2)


# ----------------------------------------------------------------------
# quadratic forms over even auxiliaries with Grassmann coefficients
# ----------------------------------------------------------------------

@dataclass
class AuxiliaryPolynomial:
    """S(v) = (1/2) v^T Q v + L^T v + C over commuting (even) unknowns.

    Q is symmetric with even Grassmann entries, L has even entries, C is an
    arbitrary Grassmann element.  Elimination substitutes the exact
    stationary point of a group of unknowns, inverting the corresponding
    block through a terminating geometric series on its nilpotent part.
    """

    ngen: int
    variables: list[str]
    quad: dict = field(default_factory=dict)
    lin: dict = field(default_factory=dict)
    const: GrassmannElement | None = None

    def __post_init__(self):
        if self.const is None:
            self.const = G(self.ngen)

    def _zero(self):
        return G(self.ngen)

    def add_quad(self, a: str, b: str, coeff):
        """Add coeff * v_a v_b to S (symmetrized into Q = 2 d^2 S)."""
        coeff = self._as_elem(coeff)
        if not coeff.is_even():
            raise ValueError("quadratic coefficients must be even")
        if a == b:
            cur = self.quad.get((a, a), self._zero())
            self.quad[(a, a)] = cur + 2.0 * coeff
            return
        for key in ((a, b), (b, a)):
            cur = self.quad.get(key, self._zero())
            self.quad[key] = cur + coeff

    def add_lin(self, a: str, coeff):
        coeff = self._as_elem(coeff)
        if not coeff.is_even():
            raise ValueError("linear coefficients must be even")
        self.lin[a] = self.lin.get(a, self._zero()) + coeff

    def add_const(self, coeff):
        self.const = self.const + self._as_elem(coeff)

    def _as_elem(self, c):
        return c if isinstance(c, GrassmannElement) else G.scalar(self.ngen, c)

    def q_entry(self, a, b):
        return self.quad.get((a, b), self._zero())

    def l_entry(self, a):
        return self.lin.get(a, self._zero())

    def eliminate(self, group):
        """Substitute the stationary solution of the listed unknowns.

        Returns (reduced polynomial, solution) where solution maps each
        eliminated unknown to (constant part, {kept unknown: coefficient}).
        Raises SingularBodyError when the numeric body of the group block
        is singular.
        """
        group = list(group)
        keep = [v for v in self.variables if v not in group]
        qww = [[self.q_entry(a, b) for b in group] for a in group]
        body = [[e.body for e in row] for row in qww]
        # Batch bodies: one inverse per node of their stack
        size = max((b.v.size for row in body for b in row
                    if type(b) is Batch), default=0)
        body_inv = ch.inverse(dual.tighten(body, size), SingularBodyError,
                              f"block body of group {group}")
        # (B + N)^{-1} = sum_k (-B^{-1} N)^k B^{-1}, exact because N is
        # nilpotent.
        binv = [[G.scalar(self.ngen, b) for b in row] for row in
                (dual.entries(body_inv) if size else body_inv)]
        nil = [[e - G.scalar(self.ngen, b) for e, b in zip(row, brow)]
               for row, brow in zip(qww, body)]
        step = [[-e for e in row] for row in _gm_mul(binv, nil)]
        inv = term = binv
        for _ in range(self.ngen // 2 + 1):
            term = _gm_mul(step, term)
            if not any(e.coeffs for row in term for e in row):
                break
            inv = [[a + b for a, b in zip(ra, rb)]
                   for ra, rb in zip(inv, term)]

        # X = inv [L_W | Q_WK]; the stationary point is v_W = -X [1; v_K],
        # and substituting it leaves the Schur complement of the block.
        lw = [self.l_entry(a) for a in group]
        x = _gm_mul(inv, [[la] + [self.q_entry(a, k) for k in keep]
                          for la, a in zip(lw, group)])
        corr = _gm_mul([[self.q_entry(k, w) for w in group] for k in keep], x)
        out = AuxiliaryPolynomial(self.ngen, keep)
        out.const = self.const - 0.5 * _gv_dot(lw, [row[0] for row in x])
        for i, ka in enumerate(keep):
            new_l = self.l_entry(ka) - corr[i][0]
            if new_l.coeffs:
                out.lin[ka] = new_l
            for j, kb in enumerate(keep, 1):
                val = self.q_entry(ka, kb) - corr[i][j]
                if val.coeffs:
                    out.quad[(ka, kb)] = val
        solution = {w: (-x[i][0], {k: -e for k, e in zip(keep, x[i][1:])})
                    for i, w in enumerate(group)}
        return out, solution


def _gm_mul(a, b):
    cols = list(zip(*b))
    return [[_gv_dot(row, col) for col in cols] for row in a]


def _gv_dot(u, v):
    """sum_k u[k] v[k], skipping the products with an exactly zero factor.

    Adding a zero element changes nothing, so the sum is the one the full
    loop gives; most block entries of the component actions are zero.
    """
    acc = None
    for a, b in zip(u, v):
        if a.coeffs and b.coeffs:
            acc = a * b if acc is None else acc + a * b
    return G(u[0].n) if acc is None else acc


# ----------------------------------------------------------------------
# pointwise data for the component actions
# ----------------------------------------------------------------------

@dataclass
class PointFrame:
    """Every tensor value the Grassmann stage consumes at a batch point (one
    node at a plain point), each array with a leading node axis."""

    point: tuple
    n: int
    g: np.ndarray
    ginv: np.ndarray
    H: np.ndarray                 # fully lowered 3-form
    gamma: np.ndarray             # Levi-Civita coefficients
    r_minus: np.ndarray           # torsion curvature, raw component slots
    # group data (quotient model); None for the section model
    s: int = 0
    V: np.ndarray | None = None
    xi: np.ndarray | None = None
    dxi_cov: np.ndarray | None = None   # [a, k, i] = nabla_k xi_{a i}
    dv_cov_low: np.ndarray | None = None  # [a, k, i] = g_{im} nabla_k V_a^m
    G_ab: np.ndarray | None = None
    K_ab: np.ndarray | None = None
    T_ab: np.ndarray | None = None
    # section data
    r: int = 0
    dsigma: np.ndarray | None = None          # [alpha, i]
    hess_sigma: np.ndarray | None = None      # [alpha, i, j] plain Hessian
    # zero-mode frames (rows are ambient components)
    plus_frame: np.ndarray | None = None
    minus_frame: np.ndarray | None = None

    @property
    def m(self) -> int:
        return self.plus_frame.shape[-2]


def point_frame_quotient(lp: qt.LiftedPoint) -> PointFrame:
    """Assemble the gauged-model data of a lifted sample.

    The plus and minus zero-mode frames are the sample's tau_pm lifts of its
    quotient basis, so the localized exponent and the reduced-curvature
    contraction live on identical frames.  A batch sample gives a batch
    frame, each node with the bits of its own.
    """
    geo, rm = lp.geo, lp.rm
    rmin = bismut_curvature(-1, geo)    # before Gamma: one order-2 jet of g
    vv, xv = lp.jet.value[:, 0], lp.jet.value[:, 1]
    d1 = np.moveaxis(lp.jet.d1, 1, 3)   # [N, row, a, k, i] = d_k row_ai
    dxi = d1[:, 1] - ch.node_einsum("mki,am->aki", geo.gamma, xv)
    dv = d1[:, 0] + ch.node_einsum("ikm,am->aki", geo.gamma, vv)
    pf = PointFrame(
        point=tuple(lp.p), n=lp.scn.ambient_dim, g=geo.g, ginv=geo.ginv,
        H=geo.H, gamma=geo.gamma, r_minus=rmin, s=lp.scn.ea.s, V=vv, xi=xv,
        dxi_cov=dxi, dv_cov_low=ch.node_einsum("aki,im->akm", dv, geo.g),
        G_ab=rm.G, K_ab=rm.K, T_ab=rm.T,
        plus_frame=lp.plus, minus_frame=lp.minus)
    _check_zero_mode_frames(pf)
    return pf


def _check_zero_mode_frames(pf: PointFrame, tol: float = 1e-6):
    """Zero modes must satisfy their defining linear constraints, at every
    node of a batch frame; the error names the first node that fails."""
    defects = []
    if pf.s:
        for sign, fr in ((+1, pf.plus_frame), (-1, pf.minus_frame)):
            rows = ch.node_einsum("am,mi->ai", pf.V, pf.g) + sign * pf.xi
            defects.append(("violates its horizontality constraint",
                            ch.node_einsum("ai,ri->ar", rows, fr)))
    if pf.r:
        defects.append(("not tangent to the zero locus", ch.node_einsum(
            "ai,ri->ar", pf.dsigma, pf.plus_frame)))
    for what, defect in defects:
        # a NaN defect fails the test, as does a NaN max
        ok = np.abs(defect).reshape(dual.nodes(pf.point), -1).max(1) <= tol
        if not all(ok):
            raise FrameMismatchError(f"zero-mode frame {what} at "
                                     f"{ch._at(pf.point, int(np.argmin(ok)))}")


def point_frame_section(lp: sm.LocusPoint) -> PointFrame:
    """Assemble the constrained-model data of a locus sample on its frame
    (a batch frame, of one node at a plain point)."""
    geo = lp.geo
    rmin = bismut_curvature(-1, geo)    # before Gamma: one order-2 jet of g
    pf = PointFrame(
        point=tuple(lp.p), n=lp.scn.ambient_dim, g=geo.g, ginv=geo.ginv,
        H=geo.H, gamma=geo.gamma, r_minus=rmin, r=lp.scn.sd.r,
        dsigma=lp.grads,
        hess_sigma=np.moveaxis(lp.jet.d2, 3, 1),
        plus_frame=lp.basis, minus_frame=lp.basis)
    _check_zero_mode_frames(pf)
    return pf


# ----------------------------------------------------------------------
# component actions as auxiliary polynomials
# ----------------------------------------------------------------------

def _quad_sum(ngen, m, coeffs, first, second):
    """sum coeffs[r, c] theta_first(r) theta_second(c) as an element.

    ``first``/``second`` select the chirality offset: 0 for plus modes,
    m for minus modes.
    """
    return _word_sum(ngen, coeffs, ((first, 0), (second, 1)))


def _flux_square_quartic(dmat: np.ndarray) -> GrassmannElement:
    """sum dmat[r, m, s, n] psi-_r psi+_m psi-_s psi+_n over m modes each."""
    m = dmat.shape[1]
    return _word_sum(2 * m, dmat, ((m, 0), (0, 1), (m, 2), (0, 3)))


def _base_action(pf: PointFrame, poly: AuxiliaryPolynomial):
    """Shared part: curvature quartic, F square, F-flux coupling."""
    m = pf.m
    ngen = 2 * m
    p_fr, m_fr = pf.plus_frame, pf.minus_frame
    rhat = ch.frame_contract(pf.r_minus, p_fr, p_fr, m_fr, m_fr)
    # the action pairs the curvature in the pairing-flipped component
    # convention (a sign flip of the sphere-positive array): the flux-squared
    # part must cancel against the multiplier Gaussian downstream
    poly.add_const(0.5 * curvature_quartic(rhat, m))
    for i in range(pf.n):
        for j in range(pf.n):
            if pf.g[:, i, j].any():
                poly.add_quad(f"F{i}", f"F{j}", 0.5 * Batch(pf.g[:, i, j]))
    c1 = ch.node_einsum("ijk,ri,mj->rmk", pf.H, m_fr, p_fr)
    for k in range(pf.n):
        coupling = _quad_sum(ngen, m, 0.5 * c1[..., k], m, 0)
        if coupling.coeffs:
            poly.add_lin(f"F{k}", coupling)
    dmat = ch.node_einsum("rmk,kl,snl->rmsn", c1, pf.ginv, c1)
    poly.add_const(0.125 * _flux_square_quartic(dmat))


def build_quotient_action(pf: PointFrame) -> AuxiliaryPolynomial:
    """The gauged component action restricted to the zero modes.

    Unknowns: F^i, and the three even multiplier blocks pm (mixed), pp and
    mm (the chiral pair whose joint elimination realizes the delta-function
    constraint).
    """
    if pf.s == 0:
        raise FrameMismatchError("quotient action needs group data")
    m = pf.m
    ngen = 2 * m
    variables = [f"F{i}" for i in range(pf.n)]
    variables += [f"pm{a}" for a in range(pf.s)]
    variables += [f"pp{a}" for a in range(pf.s)]
    variables += [f"mm{a}" for a in range(pf.s)]
    poly = AuxiliaryPolynomial(ngen, variables)
    _base_action(pf, poly)
    p_fr, m_fr = pf.plus_frame, pf.minus_frame

    for a in range(pf.s):
        for b in range(pf.s):
            if pf.G_ab[:, a, b].any():
                poly.add_quad(f"pm{a}", f"pm{b}",
                              -0.5 * Batch(pf.G_ab[:, a, b]))
            if pf.K_ab[:, a, b].any():
                poly.add_quad(f"pp{a}", f"mm{b}",
                              0.5 * Batch(pf.K_ab[:, a, b]))
    for a in range(pf.s):
        for i in range(pf.n):
            if pf.xi[:, a, i].any():
                poly.add_quad(f"F{i}", f"pm{a}", -Batch(pf.xi[:, a, i]))

    for a in range(pf.s):
        # mixed multiplier: (1/2)(grad_+ xi psi_- - grad_- xi psi_+)
        # + (psi_+, grad_- V_a)
        t1 = ch.node_einsum("ki,mk,ri->mr", pf.dxi_cov[:, a], p_fr, m_fr)
        t2 = ch.node_einsum("ki,rk,mi->rm", pf.dxi_cov[:, a], m_fr, p_fr)
        t3 = ch.node_einsum("ki,mi,rk->mr", pf.dv_cov_low[:, a], p_fr, m_fr)
        lin = (_quad_sum(ngen, m, 0.5 * t1, 0, m)
               + _quad_sum(ngen, m, -0.5 * t2, m, 0)
               + _quad_sum(ngen, m, t3, 0, m))
        if lin.coeffs:
            poly.add_lin(f"pm{a}", lin)
        # chiral multipliers
        u1 = ch.node_einsum("ki,ri,sk->rs", pf.dxi_cov[:, a], m_fr, m_fr)
        u2 = ch.node_einsum("kj,rk,sj->rs", pf.dv_cov_low[:, a], m_fr, m_fr)
        lpp = _quad_sum(ngen, m, 0.5 * u1, m, m) \
            + _quad_sum(ngen, m, 0.5 * u2, m, m)
        if lpp.coeffs:
            poly.add_lin(f"pp{a}", lpp)
        w1 = ch.node_einsum("ki,ri,sk->rs", pf.dxi_cov[:, a], p_fr, p_fr)
        w2 = ch.node_einsum("kj,rk,sj->rs", pf.dv_cov_low[:, a], p_fr, p_fr)
        lmm = _quad_sum(ngen, m, -0.5 * w1, 0, 0) \
            + _quad_sum(ngen, m, 0.5 * w2, 0, 0)
        if lmm.coeffs:
            poly.add_lin(f"mm{a}", lmm)
    return poly


def build_section_action(pf: PointFrame) -> AuxiliaryPolynomial:
    """The section-constrained component action on tangent zero modes.

    Unknowns: F^i and the transverse multipliers W_alpha (the imaginary
    unit of the delta-producing pairing is absorbed into W, which flips the
    sign of its induced quadratic block but not the stationary exponent).
    """
    if pf.r == 0:
        raise FrameMismatchError("section action needs constraint data")
    m = pf.m
    ngen = 2 * m
    variables = [f"F{i}" for i in range(pf.n)] + \
        [f"W{al}" for al in range(pf.r)]
    poly = AuxiliaryPolynomial(ngen, variables)
    _base_action(pf, poly)
    e_fr = pf.plus_frame
    for al in range(pf.r):
        for i in range(pf.n):
            if pf.dsigma[:, al, i].any():
                poly.add_quad(f"F{i}", f"W{al}", Batch(pf.dsigma[:, al, i]))
        hess_c = ch.node_einsum("ij,ri,nj->nr", pf.hess_sigma[:, al], e_fr,
                                e_fr)
        lin = _quad_sum(ngen, m, -hess_c, 0, m)
        gam_c = ch.node_einsum("i,ijk,rj,nk->rn",
                               pf.dsigma[:, al], pf.gamma, e_fr, e_fr)
        lin = lin + _quad_sum(ngen, m, -gam_c, m, 0)
        if lin.coeffs:
            poly.add_lin(f"W{al}", lin)
    return poly


def localize_model(pf: PointFrame, model: str):
    """Run the elimination chain; returns (exponent, details).

    ``model`` is "quotient" or "section".  The exponent is minus the
    reduced action: a quartic Grassmann element in the zero-mode
    generators whose coefficients match the reduced-curvature pairing of
    the corresponding geometry module (contract checked by the test suite
    and the scenario checks).  ``details`` carries the eliminated
    multiplier solutions keyed by block name.
    """
    if model == "quotient":
        poly = build_quotient_action(pf)
        chain = [[f"pp{a}" for a in range(pf.s)]
                 + [f"mm{a}" for a in range(pf.s)],
                 [f"F{i}" for i in range(pf.n)],
                 [f"pm{a}" for a in range(pf.s)]]
    elif model == "section":
        poly = build_section_action(pf)
        chain = [[f"F{i}" for i in range(pf.n)],
                 [f"W{al}" for al in range(pf.r)]]
    else:
        raise ValueError("model must be 'quotient' or 'section'")
    details = {}
    for group in chain:
        poly, sol = poly.eliminate(group)
        details.update(sol)
    if poly.variables:
        raise FrameMismatchError("variables left after the chain")
    return -1.0 * poly.const, details


def localized_exponent_target(pf: PointFrame, reduced_paper_slots: np.ndarray
                              ) -> GrassmannElement:
    """The exponent the chain must reproduce: the reduced-curvature pairing.

    Takes the reduced curvature in operator slots (as returned by the
    geometry modules on the same aligned frames) and renders it with the
    same pairing convention the assembled actions use, so that
    ``localize_model`` output equals this element coefficientwise.
    """
    raw = ch.swap_operator_slots(reduced_paper_slots)
    return -0.5 * curvature_quartic(raw, pf.m)
