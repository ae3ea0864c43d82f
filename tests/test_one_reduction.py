"""One reduction from samples to a residual: ``chart.max_abs``.

A NaN at any sample must fail its check, its validator condition or its
set-up gate; the ``tolerances`` config key is gone, and an Euler ``order``
above ``checks.MAX_ORDER`` is a config error rather than a silent clamp.
"""

import json
import math

import numpy as np
import pytest

from ggred import chart as ch
from ggred import checks as ck
from ggred import cli
from ggred import genmetric as gm
from ggred import gk as gkmod
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm
from ggred.errors import ScenarioError
from ggred.grassmann import GrassmannElement

NAN = float("nan")


# -- chart.max_abs ----------------------------------------------------------

def test_no_samples_give_zero():
    assert ch.max_abs([]) == 0.0
    assert ch.max_abs(iter(())) == 0.0
    assert ch.max_abs([np.zeros(0)]) == 0.0


def test_numbers_and_arrays_mixed():
    samples = [0.5, np.array([[1.0, -3.0], [2.0, 0.0]]), -2.5,
               np.array([-1.0])]
    assert ch.max_abs(samples) == 3.0
    assert type(ch.max_abs(samples)) is float
    assert ch.max_abs(iter(samples)) == 3.0
    assert ch.max_abs([-7.0]) == 7.0


def test_object_arrays_reduce_like_float_arrays():
    arr = np.array([[1.0, -4.0], [2.0, 3.0]], dtype=object)
    assert ch.max_abs([arr, 0.5]) == 4.0


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("as_array", [False, True])
def test_a_nan_at_any_sample_gives_nan(where, as_array):
    samples = [1.0, np.array([2.0, -5.0]), 3.0, np.array([[0.5]]), 4.0]
    samples[where] = np.array([1.0, NAN]) if as_array else NAN
    assert math.isnan(ch.max_abs(samples))
    assert math.isnan(ch.max_abs(iter(samples)))


def test_antisymmetry_residual_keeps_a_nan():
    s = sc.build("hopf_flux", {})
    pts = s.chart.sample(np.random.default_rng(0), 3)
    good = ch.antisymmetry_residual(s.ctx.H, pts)
    assert good < ch.EPS_ID
    calls = []

    def fn(c):
        calls.append(1)
        out = np.array(s.ctx.H.fn(c), dtype=object)
        if len(calls) == 2:
            out[0, 1, 2] = NAN
        return out
    bad = ch.ChartField(s.chart, s.ctx.H.valence, fn, name="H_nan")
    assert math.isnan(ch.antisymmetry_residual(bad, pts))


# -- every sampled check fails on one NaN sample ---------------------------

def _nan_like(out):
    """``out`` with one NaN in it: at the entry of largest |value| of an
    array, in place of a number, in the first item of a tuple, and as the
    body of every Grassmann element of a list."""
    if isinstance(out, tuple):
        return (_nan_like(out[0]),) + out[1:]
    if isinstance(out, list) and out and isinstance(out[0], GrassmannElement):
        return [e + GrassmannElement.scalar(e.n, NAN) for e in out]
    if np.ndim(out) == 0:
        return NAN
    arr = np.array(out, dtype=float)
    arr[np.unravel_index(np.argmax(np.abs(arr)), arr.shape)] = NAN
    return arr


def nan_at(monkeypatch, owner, name, call):
    """Make ``owner.name`` return a NaN at its ``call``-th call only."""
    original, calls = getattr(owner, name), []

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(1)
        return _nan_like(out) if len(calls) == call else out

    monkeypatch.setattr(owner, name, spy)
    return calls


# (check, scenario, parameters, module, routine, the call that turns NaN)
SAMPLED = [
    ("bismut_courant", "hopf", {}, ck, "bismut_via_courant", 1),
    ("pair_symmetry", "hopf_flux", {}, ck, "bismut_curvature", 2),
    ("lemma62", "hopf_flux", {}, qt, "omega_curvature", 2),
    ("thm63", "hopf_flux", {}, qt, "reduced_curvature_direct", 1),
    ("oneill", "hopf", {}, qt, "oneill_curvature", 1),
    ("thm65", "sphere_in_flat", {"c": 0.5}, sm,
     "reduced_curvature_sub_direct", 1),
    ("localize2", "hopf_flux", {}, qt, "reduced_curvature_quotient", 1),
    ("localize3", "sphere_in_flat", {"c": 0.5}, sm,
     "reduced_curvature_sub", 1),
    ("phi_closed_form", "hopf_flux", {}, ck, "mixed_multiplier_closed_form",
     1),
    ("pfaffian", "flat_torus", {}, ck, "pfaffian", 3),
    ("gk_validate", "product_qg", {}, gkmod, "nijenhuis", 2),
    ("gk_reduce", "product_qg", {}, gkmod, "nijenhuis", 2),
    ("ea_validate", "hopf_flux", {}, ch, "lie_derivative", 2),
]


def test_every_sampled_check_is_listed():
    exploratory_or_quadrature = {"euler", "euler_flux"}
    assert sorted(c[0] for c in SAMPLED) == \
        sorted(set(ck.REGISTRY) - exploratory_or_quadrature)


@pytest.mark.parametrize("cid, name, params, owner, routine, call", SAMPLED,
                         ids=[c[0] for c in SAMPLED])
def test_one_nan_sample_fails_the_check(monkeypatch, cid, name, params,
                                        owner, routine, call):
    s = sc.build(name, params)
    assert ck.applicable(s, cid)
    assert ck.run_check(s, cid, 42, points=3).status == "pass"
    calls = nan_at(monkeypatch, owner, routine, call)
    res = ck.run_check(s, cid, 42, points=3)
    assert len(calls) >= call
    assert res.status == "fail"
    assert math.isnan(res.max_residual)


# -- both validators --------------------------------------------------------

def test_extended_action_validator_names_the_nan_condition(monkeypatch):
    s = sc.build("hopf_flux", {})
    pts = s.chart.sample(np.random.default_rng(3), 3)
    assert qt.validate_extended_action(s.ea, s.ctx, pts).passed
    # per batch point: L_V g, L_V H (invariance), then L_V xi (flux_match)
    nan_at(monkeypatch, ch, "lie_derivative", 1)
    rep = qt.validate_extended_action(s.ea, s.ctx, pts)
    assert not rep.passed
    assert rep.failing() == ["invariance"]
    assert math.isnan(rep.conditions["invariance"].residual)
    assert math.isnan(rep.max_residual)


def test_extended_action_validator_nan_one_form_derivative(monkeypatch):
    s = sc.build("hopf_flux", {})
    pts = s.chart.sample(np.random.default_rng(3), 3)
    nan_at(monkeypatch, ch, "lie_derivative", 3)
    rep = qt.validate_extended_action(s.ea, s.ctx, pts)
    assert rep.failing() == ["flux_match"]


def test_bihermitian_validator_names_the_nan_condition(monkeypatch):
    s = sc.build("product_qg", {})
    pts = s.chart.sample(np.random.default_rng(3), 3)
    assert gkmod.validate_bihermitian(s.gk, s.ctx, pts).passed
    # one call per structure of the batch point; the second is J_-
    nan_at(monkeypatch, gkmod, "nijenhuis", 2)
    rep = gkmod.validate_bihermitian(s.gk, s.ctx, pts)
    assert not rep.passed
    assert rep.failing() == ["integrability"]
    assert math.isnan(rep.conditions["integrability"].residual)


def test_flux_type_residual_keeps_a_nan():
    s = sc.build("product_qg", {})
    p = s.chart.sample(np.random.default_rng(3), 1)[0]
    vecs = [tuple(np.random.default_rng(k).normal(size=(3, 4)))
            for k in range(4)]
    # one residual per node: a point is a one-node batch
    jv, h = gm.field_values(s.gk.Jplus, p), s.ctx.flux_at(p)
    (res,) = gkmod.flux_type_residual(jv, h, vecs)
    assert res < 1e-8
    vecs[2] = (np.full(4, NAN),) + vecs[2][1:]
    (res,) = gkmod.flux_type_residual(jv, h, vecs)
    assert math.isnan(res)


# -- the three set-up gates -------------------------------------------------

def _cfg(name, **params):
    return cli.load_config({"scenario": name, "parameters": params})


def test_nan_closure_residual_is_a_scenario_error(monkeypatch, capsys):
    calls = []
    original = gm.GeneralizedMetricContext.closure_residual

    def closure(self, p):       # the three probes are one batch point
        calls.append(1)
        out = original(self, p)
        return out * NAN if len(calls) == 1 else out
    monkeypatch.setattr(gm.GeneralizedMetricContext, "closure_residual",
                        closure)
    with pytest.raises(ScenarioError, match="flux not closed"):
        cli.setup_scenario(_cfg("hopf_flux"))
    calls.clear()
    assert cli.main(["run", "--scenario", "hopf_flux", "--checks",
                     "lemma62", "--set", "points=2"]) == 3
    assert "flux not closed" in capsys.readouterr().err


def test_nan_in_quotient_maps_is_a_scenario_error(monkeypatch, capsys):
    s = sc.build("hopf_flux", {})
    rng = np.random.default_rng(0)
    assert s.quotient.check_maps(rng) <= 1e-10
    # the samples are one batch point, so d(project) has Batch entries:
    # one of them turns NaN
    jacobian = qt.project_jacobian

    def nan_entry(scn, p):
        out = jacobian(scn, p)
        out[0, 0] = out[0, 0] * NAN
        return out
    monkeypatch.setattr(qt, "project_jacobian", nan_entry)
    with pytest.raises(ScenarioError, match="quotient maps inconsistent"):
        s.quotient.check_maps(rng)
    assert cli.main(["run", "--scenario", "hopf_flux", "--checks",
                     "lemma62", "--set", "points=2"]) == 3
    assert "quotient maps inconsistent" in capsys.readouterr().err


def test_nan_in_section_maps_is_a_scenario_error(monkeypatch, capsys):
    s = sc.build("sphere_in_flat", {"c": 0.5})
    rng = np.random.default_rng(0)
    assert s.section.check_maps(rng) <= 1e-10
    # the samples are one batch point: one call of values
    nan_at(monkeypatch, sm.SectionData, "values", 1)
    with pytest.raises(ScenarioError, match="misses the zero locus"):
        s.section.check_maps(rng)
    nan_at(monkeypatch, sm.SectionData, "values", 1)
    assert cli.main(["run", "--scenario", "sphere_in_flat", "--checks",
                     "thm65", "--set", "points=2"]) == 3
    assert "misses the zero locus" in capsys.readouterr().err


def test_a_nan_xi_is_not_flux_free(monkeypatch):
    s = sc.build("hopf", {})
    assert ck.applicable(s, "oneill")
    xi = s.ea.xi[0]
    nan_xi = ch.ChartField(xi.chart, xi.valence,
                           lambda c: [NAN] * xi.chart.dim, name="nan")
    s.ea = qt.ExtendedAction(s.ea.V, (nan_xi,) + s.ea.xi[1:])
    assert not ck.applicable(s, "oneill")
    with pytest.raises(ScenarioError, match="zero flux and zero xi"):
        ck.REGISTRY["oneill"].fn(s, np.random.default_rng(0), 1e-6, 2)


# -- removed knobs ----------------------------------------------------------

def write_config(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_tolerances_key_is_unknown(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "product_qg",
                                  "parameters": {"jplus_perturb": 0.3},
                                  "checks": ["gk_validate"],
                                  "tolerances": {"eps_id": 10}})
    for command in ("run", "validate"):
        assert cli.main([command, cfg]) == 2
        assert "unknown config key(s): ['tolerances']" in \
            capsys.readouterr().err


def test_run_check_takes_no_tolerance_override():
    s = sc.build("flat_torus", {})
    with pytest.raises(TypeError):
        ck.run_check(s, "pfaffian", 42, tol_override=10.0)


def test_order_above_the_limit_is_a_config_error(tmp_path, capsys):
    assert cli.main(["run", "--scenario", "round_sphere", "--set",
                     "order=40", "--checks", "euler"]) == 2
    assert "at most 32" in capsys.readouterr().err
    cfg = write_config(tmp_path, {"scenario": "round_sphere",
                                  "parameters": {"order": 40},
                                  "checks": ["euler"]})
    for command in ("run", "validate"):
        assert cli.main([command, cfg]) == 2
        assert "at most 32" in capsys.readouterr().err


def test_order_limit_holds_for_a_scenario_built_in_python():
    s = sc.build("round_sphere", {"order": 33})
    with pytest.raises(cli.ConfigError, match="at most 32"):
        ck.run_check(s, "euler", 42)
    assert ck.run_check(sc.build("round_sphere", {"order": 32}), "euler",
                        42).points == 32 ** 2
