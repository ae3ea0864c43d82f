"""Scenario registry construction and structural invariants."""

import numpy as np
import pytest

from ggred import quotient as qt
from ggred import scenarios as sc
from ggred.errors import ConfigError

RNG = np.random.default_rng(42)


def test_registry_names():
    assert set(sc.BUILTIN) == {"flat_torus", "round_sphere", "hopf",
                               "hopf_flux", "product_qg", "sphere_in_flat",
                               "s3xs1_gk"}


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        sc.build("klein_bottle", {})


def test_unknown_parameter_rejected():
    with pytest.raises(ConfigError) as err:
        sc.build("hopf", {"lamda": 1.0})
    assert "lamda" in str(err.value)


def test_every_builtin_constructs_and_closes_flux():
    rng = np.random.default_rng(0)
    for name in sc.BUILTIN:
        s = sc.build(name, {})
        p = s.chart.sample(rng, 1)[0]
        assert s.ctx.closure_residual(p) < 1e-8


def test_quotient_scenarios_validate():
    rng = np.random.default_rng(1)
    for name in ("hopf", "hopf_flux", "product_qg"):
        s = sc.build(name, {})
        rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(rng, 3))
        assert rep.passed, name
        s.quotient.check_maps(rng)


def test_flat_torus_flux_needs_dim3():
    with pytest.raises(ConfigError):
        sc.build("flat_torus", {"dim": 2, "flux": 1.0})
    s = sc.build("flat_torus", {"dim": 3, "flux": 1.0})
    assert s.ctx.has_flux


def test_round_sphere_factors():
    s = sc.build("round_sphere", {"factors": 2})
    assert s.chart.dim == 4
    with pytest.raises(ConfigError):
        sc.build("round_sphere", {"factors": 3})


def test_hopf_padding_requires_torus():
    with pytest.raises(ConfigError):
        sc.build("hopf", {"cross_flux": 1.0})
    s = sc.s3xt2({})
    assert s.chart.dim == 5
    assert s.quotient.reduced_dim == 4


def test_custom_factory_loading():
    s = sc.build("custom", {"flux": 0.5},
                 factory="ggred.scenarios:hopf_flux")
    assert s.name == "hopf_flux"
    with pytest.raises(ConfigError):
        sc.build("custom", {})
    with pytest.raises(ConfigError):
        sc.build("custom", {}, factory="ggred.scenarios:not_there")
    with pytest.raises(ConfigError):
        sc.build("custom", {}, factory="nonsense")


def test_scenario_forms_are_closed_everywhere():
    # d(dxi) = 0 and dH = 0 on the bundle scenario's fields
    from ggred import chart as ch
    s = sc.build("hopf_flux", {"flux": 1.4})
    rng = np.random.default_rng(5)
    for p in s.chart.sample(rng, 3):
        jet = ch.differentiate(s.ea.xi[0], p, order=1)
        dxi = ch.exterior_derivative(jet, 1)

        def dxi_field(coords, _s=s):
            j = ch.differentiate(_s.ea.xi[0], list(coords), order=1,
                                 chart=_s.chart)
            return ch.exterior_derivative(j, 1)
        jet2 = ch.differentiate(dxi_field, p, order=1)
        ddxi = ch.exterior_derivative(
            ch.PointJet(tuple(p), jet2.value, jet2.d1), 2)
        assert np.max(np.abs(ddxi)) < 1e-8


def test_builtin_form_fields_are_antisymmetric():
    from ggred import chart as ch
    rng = np.random.default_rng(6)
    for name in sc.BUILTIN:
        s = sc.build(name, {})
        pts = s.chart.sample(rng, 3)
        assert ch.antisymmetry_residual(s.ctx.H, pts) < ch.EPS_ID


def test_integer_parameters_accept_integral_floats():
    assert sc.build("flat_torus", {"dim": 3.0}).chart.dim == 3
    assert sc.build("round_sphere", {"factors": 2.0}).chart.dim == 4
    assert sc.build("hopf", {"torus_factors": 2.0}).chart.dim == 5


# -- integer parameters read by the checks ---------------------------------

BAD_INTEGER_PARAMETERS = [
    ("hopf", {"points": 2.5}, "lemma62", None, "points"),
    ("hopf", {}, "lemma62", 2.5, "points"),
    ("hopf", {"points": float("inf")}, "lemma62", None, "points"),
    ("hopf", {"points": 0}, "lemma62", None, "points"),
    ("hopf", {}, "ea_validate", -2, "points"),
    ("round_sphere", {"order": 2.5}, "euler", None, "order"),
    ("round_sphere", {"order": float("nan")}, "euler", None, "order"),
    ("round_sphere", {"order": 0}, "euler", None, "order"),
]


@pytest.mark.parametrize("name, params, cid, points, key",
                         BAD_INTEGER_PARAMETERS,
                         ids=["fractional_points", "fractional_points_argument",
                              "infinite_points", "zero_points",
                              "negative_points_argument", "fractional_order",
                              "nan_order", "zero_order"])
def test_checks_reject_bad_integer_parameters(name, params, cid, points, key):
    from ggred import checks as ck
    s = sc.build(name, params)
    with pytest.raises(ConfigError) as err:
        ck.run_check(s, cid, 42, points=points)
    assert f"{name}: {key} must be a positive integer" in str(err.value)


def test_checks_accept_integral_float_parameters():
    from ggred import checks as ck
    assert ck.run_check(sc.build("hopf", {"points": 3.0}), "lemma62",
                        42).points == 3
    assert ck.run_check(sc.build("hopf", {}), "ea_validate", 42,
                        points=2.0).points == 2
    assert ck.run_check(sc.build("round_sphere", {"order": 4.0}), "euler",
                        42).points == 16
