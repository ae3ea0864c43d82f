"""One batch point for the set-up probes, and ``chart.inverse`` on one matrix.

``cli.setup_scenario`` evaluates its three probes as one batch point: the
closure residual takes one jet of H there and, on a quotient, the
extended-action validator another, so set-up makes exactly the
``dual.partial`` passes of its two gates run apart, and 2 x dim fewer than
a closure test probe by probe.

``chart.inverse`` tests the scale of a single matrix with Python floats,
not numpy reductions; the decision, the error and the inverse's bits must be
those of the numpy test on every input.
"""

import math

import numpy as np
import pytest

from ggred import chart as ch
from ggred import cli
from ggred import dual
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.errors import RankError, SingularBodyError, SingularMetricError

NAN, INF = math.nan, math.inf

QUOTIENT_CONFIGS = {
    "hopf": {"scenario": "hopf"},
    "hopf_flux": {"scenario": "hopf_flux"},
    "product_qg": {"scenario": "product_qg"},
    "s3xt2": {"scenario": "custom", "factory": "ggred.scenarios:s3xt2"},
}


def batch_of(points):
    return [dual.Batch(x) for x in np.asarray(points).T]


def count_partials(monkeypatch):
    calls, partial = [0], dual.partial

    def counted(*args):
        calls[0] += 1
        return partial(*args)
    monkeypatch.setattr(dual, "partial", counted)
    return calls


@pytest.mark.parametrize("name", sorted(QUOTIENT_CONFIGS))
def test_setup_takes_one_jet_of_h_per_probe(monkeypatch, name):
    cfg = cli.load_config(QUOTIENT_CONFIGS[name])
    calls = count_partials(monkeypatch)
    s = cli.setup_scenario(cfg)
    together = calls[0]
    # the same gates, in the same order and on the same draws, each
    # taking its own jets: the closure test at the three probes' batch
    # point, and the validator
    calls[0] = 0
    s = sc.build(cfg["scenario"], cfg["parameters"],
                 factory=cfg["factory"])
    rng = np.random.default_rng(cfg["seed"])
    probes = s.chart.sample(rng, 3)
    assert np.all(s.ctx.closure_residual(batch_of(probes)) <= 1e-8)
    assert qt.validate_extended_action(s.ea, s.ctx, probes).passed
    s.quotient.check_maps(rng)
    assert together == calls[0]
    # probe by probe, the closure test takes three jets of H
    calls[0] = 0
    assert all(s.ctx.closure_residual(p) <= 1e-8 for p in probes)
    assert calls[0] == 3 * s.chart.dim


@pytest.mark.parametrize("name", sorted(QUOTIENT_CONFIGS))
def test_shared_jets_keep_the_validator_report(name):
    # one jet of H at the probes' batch point gives each probe's residual,
    # and the validator's report on the three is that of its probes
    cfg = cli.load_config(QUOTIENT_CONFIGS[name])
    s = sc.build(cfg["scenario"], cfg["parameters"],
                 factory=cfg["factory"])
    probes = s.chart.sample(np.random.default_rng(3), 3)
    assert s.ctx.closure_residual(batch_of(probes)).tolist() == \
        [s.ctx.closure_residual(list(p)) for p in probes]
    shared = qt.validate_extended_action(s.ea, s.ctx, probes)
    alone = [qt.validate_extended_action(s.ea, s.ctx, [p]) for p in probes]
    assert {k: c.residual for k, c in shared.conditions.items()} == \
        {k: max(r.conditions[k].residual for r in alone)
         for k in shared.conditions}


# -- chart.inverse: the scale test of one matrix ------------------------------

def numpy_inverse(m, error, what, definite=False):
    """The inverse with its scale test as numpy reductions, as on a stack;
    an exactly singular matrix has no finite inverse."""
    m = np.asarray(m, dtype=float)
    try:
        if definite:
            np.linalg.cholesky(0.5 * (m + m.swapaxes(-1, -2)))
    except np.linalg.LinAlgError as exc:
        raise error(f"{what} not positive definite") from exc
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        inv = np.full_like(m, np.inf)
    cond = np.abs(m).max((-2, -1)) * np.abs(inv).max((-2, -1))
    if not (cond < 1.0 / ch.PIVOT_RTOL).all():
        raise error(f"{what} numerically singular: max|m| max|m^-1| = "
                    f"{np.max(cond):.1e}")
    return inv


def outcome(fn, m, definite):
    """The decision: the error raised and its reason, or the inverse."""
    try:
        with np.errstate(all="ignore"):
            return fn(m, SingularBodyError, "block", definite=definite)
    except (SingularBodyError, RankError, SingularMetricError) as exc:
        return type(exc), str(exc).split(":")[0]


def cases():
    rng = np.random.default_rng(28)
    out = [rng.normal(size=(n, n)) + n * np.eye(n) for n in (1, 2, 3, 5, 8)]
    out += [np.diag([1.0, 1e-12]), np.diag([1.0, 1.0000001e-12]),
            np.diag([1e308, 1e308]), np.diag([1e-308, 1e-308]),
            np.array([[1e308, 1e308], [-1e308, 1e308]]),
            np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2)),
            np.array([[-0.0, 1.0], [1.0, -0.0]]),
            np.array([[2.0, 1.0], [1.0, -3.0]])]
    for bad in (NAN, INF, -INF):
        for pos in ((0, 0), (0, 1), (1, 1)):
            m = np.eye(2) * 2.0
            m[pos] = bad
            out.append(m)
    both = np.eye(3)
    both[0, 1], both[2, 0] = INF, -INF
    nan_inf = both.copy()
    nan_inf[1, 1] = NAN
    return out + [both, nan_inf]


@pytest.mark.parametrize("definite", [False, True])
@pytest.mark.parametrize("k", range(len(cases())))
def test_inverse_decides_as_the_numpy_scale_test(k, definite):
    # the same decision; an accepted inverse to a few ulps of LAPACK's
    m = cases()[k]
    got, want = (outcome(fn, m, definite) for fn in (ch.inverse,
                                                      numpy_inverse))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("pos", range(4))
@pytest.mark.parametrize("bad", [NAN, INF, -INF, 1e308])
def test_abs_max_is_numpys_max_of_the_absolute_values(bad, pos):
    # chart.max_abs, the one abs-max reduction of residuals, on the entries
    # that a Python max would pass over or sum wrongly
    a = np.array([[1.0, -3.0], [2.0, -1e308]])
    a.ravel()[pos] = bad
    both = a.copy()
    both.ravel()[(pos + 1) % 4] = -bad
    for m in (a, both, a.T):
        assert repr(ch.max_abs([m])) == repr(float(np.abs(m).max()))
