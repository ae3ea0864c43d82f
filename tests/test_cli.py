"""CLI behaviour: config validation, reports, exit codes, determinism."""

import json

import pytest

from ggred import cli


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_list_mentions_scenarios_and_checks(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "hopf" in out
    assert "thm65" in out
    assert "thm63" in out


def test_list_stable(capsys):
    cli.main(["list"])
    first = capsys.readouterr().out
    cli.main(["list"])
    second = capsys.readouterr().out
    assert first == second


def test_run_quick_check(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "flat_torus",
                                  "checks": ["euler"], "seed": 7})
    assert cli.main(["run", cfg, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["scenario"] == "flat_torus"
    assert set(report["checks"][0]) == {"id", "points", "max_residual",
                                        "tolerance", "status"}
    assert set(report) == {"version", "scenario", "parameters", "seed",
                           "checks", "status"}


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "hopf", "lamda": 1.0})
    assert cli.main(["validate", cfg]) == 2
    assert "lamda" in capsys.readouterr().err


def test_unknown_parameter_named(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "hopf",
                                  "parameters": {"lamda": 1.0}})
    assert cli.main(["validate", cfg]) == 2
    assert "lamda" in capsys.readouterr().err


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "hopf",
                                  "parameters": {"flux": 1.0}})
    assert cli.main(["validate", cfg]) == 0
    assert capsys.readouterr().out.strip() == "ok"


def test_validate_broken_one_form_cites_condition(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "hopf",
                                  "parameters": {"break_flux": 0.1}})
    assert cli.main(["validate", cfg]) == 3
    assert "flux_match" in capsys.readouterr().err


def test_run_exit_code_on_failing_check(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": "product_qg",
        "parameters": {"jplus_perturb": 1e-3},
        "checks": ["gk_validate"]})
    assert cli.main(["run", cfg]) == 1


def test_scenario_setup_error_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": "hopf",
                                  "parameters": {"break_isotropy": 0.1},
                                  "checks": ["thm63"]})
    assert cli.main(["run", cfg]) == 3
    assert "isotropy" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert cli.main(["run", "/nonexistent/cfg.json"]) == 2


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2


def test_inline_scenario_with_set(capsys):
    rc = cli.main(["run", "--scenario", "hopf", "--set", "flux=0",
                   "--checks", "lemma62", "--seed", "5"])
    assert rc == 0
    assert "pass" in capsys.readouterr().out


def test_unknown_check_rejected(capsys):
    rc = cli.main(["run", "--scenario", "hopf", "--checks", "nope"])
    assert rc == 2


def test_inapplicable_check_is_scenario_error(capsys):
    rc = cli.main(["run", "--scenario", "flat_torus", "--checks", "thm65"])
    assert rc == 3


def test_reports_byte_identical(tmp_path):
    cfg = {"scenario": "hopf", "parameters": {"flux": 1.0},
           "checks": ["lemma62", "thm63"], "seed": 11}
    a = cli.run_scenario(cli.load_config(cfg))
    b = cli.run_scenario(cli.load_config(cfg))
    assert json.dumps(a) == json.dumps(b)


def test_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["run", "--scenario", "flat_torus", "--checks", "euler",
                   "--report", str(out), "--format", "text"])
    assert rc == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["status"] == "pass"
    text = capsys.readouterr().out
    assert "euler" in text and "pass" in text


def test_text_format_alignment(capsys):
    cli.main(["run", "--scenario", "flat_torus", "--checks", "euler"])
    lines = capsys.readouterr().out.splitlines()
    header = [l for l in lines if l.startswith("check")]
    assert header and "max residual" in header[0]


def test_config_must_choose_one_source():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["run", "--bogus"])
    assert cli.main(["run"]) == 2


def test_round_sphere_quadrature_order_override(capsys):
    rc = cli.main(["run", "--scenario", "round_sphere", "--set", "order=24",
                   "--checks", "euler", "--format", "json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checks"][0]["points"] == 24 ** 2
    assert report["checks"][0]["status"] == "pass"


def test_set_nan_parameter_is_config_error(capsys):
    rc = cli.main(["run", "--scenario", "hopf_flux", "--set", "flux=nan",
                   "--checks", "lemma62"])
    assert rc == 2
    assert "flux" in capsys.readouterr().err


def test_set_inf_parameter_is_config_error(capsys):
    rc = cli.main(["run", "--scenario", "hopf_flux", "--set", "flux=inf",
                   "--checks", "lemma62"])
    assert rc == 2
    assert "flux" in capsys.readouterr().err


def test_config_nan_points_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": "hopf_flux", "parameters": {"points": NaN},'
                    ' "checks": ["lemma62"]}', encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2
    assert "points" in capsys.readouterr().err


def test_config_infinite_order_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"scenario": "round_sphere", "parameters": '
                    '{"order": Infinity}, "checks": ["euler"]}',
                    encoding="utf-8")
    assert cli.main(["run", str(path)]) == 2
    assert "order" in capsys.readouterr().err


def test_set_negative_points_is_config_error(capsys):
    rc = cli.main(["run", "--scenario", "hopf_flux", "--set", "points=-3",
                   "--checks", "lemma62"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


def test_set_zero_points_is_config_error(capsys):
    rc = cli.main(["run", "--scenario", "hopf_flux", "--set", "points=0",
                   "--checks", "thm63,localize2,pair_symmetry"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


def test_set_zero_quadrature_order_is_config_error(capsys):
    rc = cli.main(["run", "--scenario", "round_sphere", "--set", "order=0",
                   "--checks", "euler"])
    assert rc == 2
    assert "order" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, param, check", [
    ("flat_torus", "dim", "pfaffian"),
    ("round_sphere", "factors", "euler"),
    ("hopf", "torus_factors", "lemma62"),
])
def test_set_fractional_integer_parameter_is_config_error(
        capsys, scenario, param, check):
    rc = cli.main(["run", "--scenario", scenario, "--set", f"{param}=2.5",
                   "--checks", check])
    assert rc == 2
    err = capsys.readouterr().err
    assert param in err and "2.5" in err


@pytest.mark.parametrize("payload", [
    {"scenario": "flat_torus", "checks": ["thm65"]},
    {"scenario": "hopf", "parameters": {"flux": 1.0}, "checks": ["oneill"]},
], ids=["thm65_on_flat_torus", "oneill_with_flux"])
def test_validate_rejects_an_inapplicable_check_as_run_does(tmp_path, capsys,
                                                             payload):
    cfg = write_config(tmp_path, payload)
    assert cli.main(["validate", cfg]) == 3
    assert "not applicable" in capsys.readouterr().err
    assert cli.main(["run", cfg]) == 3
    assert "not applicable" in capsys.readouterr().err


def test_validate_missing_config_file(capsys):
    assert cli.main(["validate", "/nonexistent/cfg.json"]) == 2
    assert "config not found" in capsys.readouterr().err


def test_validate_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_unwritable_report_path_is_config_error(tmp_path, capsys):
    rc = cli.main(["run", "--scenario", "flat_torus", "--checks",
                   "pair_symmetry", "--set", "points=2",
                   "--report", str(tmp_path / "missing" / "r.json")])
    assert rc == 2
    assert "cannot write the report" in capsys.readouterr().err


@pytest.mark.parametrize("fn, message", [
    ("raises", "factory 'badfac:raises' raised ValueError: no scenario"),
    ("notscn", "factory 'badfac:notscn' returned a dict, not a Scenario"),
], ids=["raises", "notscn"])
def test_a_failing_custom_factory_is_a_scenario_error(tmp_path, monkeypatch,
                                                       capsys, fn, message):
    (tmp_path / "badfac.py").write_text(
        "def raises(params):\n    raise ValueError('no scenario')\n\n"
        "def notscn(params):\n    return {}\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    cfg = write_config(tmp_path, {"scenario": "custom",
                                  "factory": f"badfac:{fn}"})
    for command in ("run", "validate"):
        assert cli.main([command, cfg]) == 3
        assert message in capsys.readouterr().err
