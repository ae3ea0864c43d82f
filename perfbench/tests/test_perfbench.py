"""Self-tests of the benchmark: tracing coverage, transparency, contract.

Run from the repository root (a few minutes; each workload is traced
twice):

    python3 -m pytest perfbench/tests -q

``PERFBENCH_SEED`` sets the workload seed (default 42).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracing
import workloads
from ggred import chart, cli, scenarios

SEED = int(os.environ.get("PERFBENCH_SEED", "42"))
ROOT = os.path.dirname(run.HERE)

# Functions each workload is meant to exercise; each must be called.
EXERCISED = {
    "reduce": ["quotient.reduced_curvature_direct",
               "quotient.reduced_curvature_quotient",
               "quotient.horizontal_lift",
               "submanifold.reduced_curvature_sub_direct",
               "chart.differentiate", "chart.riemann", "chart.christoffel",
               "chart.solve_linear", "dual.partial"],
    "localize": ["grassmann.mul", "grassmann.exp",
                 "grassmann.berezin_integral", "localize.curvature_quartic",
                 "localize.build_quotient_action",
                 "localize.build_section_action", "localize.localize_model",
                 "localize.euler_density", "localize.point_frame_quotient",
                 "localize.point_frame_section",
                 "genmetric.bismut_curvature", "genmetric.nabla_flux",
                 "chart.riemann", "dual.partial"],
    "breadth": ["genmetric.bismut_derivative", "genmetric.bismut_via_courant",
                "genmetric.bismut_curvature", "quotient.omega_curvature",
                "quotient.validate_extended_action",
                "quotient.oneill_curvature", "gk.validate_bihermitian",
                "gk.reduce_gk", "grassmann.pfaffian",
                "localize.euler_characteristic", "scenarios.build",
                "cli.setup_scenario", "checks.run_check",
                "chart.differentiate"],
}

GRASSMANN_WORK = ("grassmann.mul", "grassmann.exp",
                  "grassmann.berezin_integral", "localize.curvature_quartic",
                  "localize.localize_model")


def traced_pass(workload):
    configs = workloads.configs(workload, SEED)
    with tracing.Tracer() as tr:
        outcome = run.run_pass(cli, configs)
    return tr, run.check_rows(configs, outcome)


@pytest.fixture(scope="module")
def first_runs():
    return {}


def first(first_runs, workload):
    if workload not in first_runs:
        first_runs[workload] = traced_pass(workload)
    return first_runs[workload]


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_workload_exercises_its_layers(first_runs, workload):
    tr, rows = first(first_runs, workload)
    assert run.failures(None, rows, "traced") == []
    missed = [name for name in EXERCISED[workload] if not tr.calls[name]]
    assert missed == []


def test_reduce_does_no_grassmann_work(first_runs):
    tr, _ = first(first_runs, "reduce")
    assert {name: tr.calls[name] for name in GRASSMANN_WORK} == \
        dict.fromkeys(GRASSMANN_WORK, 0)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_counters_and_reports_repeat(first_runs, workload):
    tr1, rows1 = first(first_runs, workload)
    tr2, rows2 = traced_pass(workload)
    assert tr2.calls == tr1.calls
    assert tr2.counts == tr1.counts
    assert run.failures(rows1, rows2, "second traced pass") == []


def test_order2_jet_makes_n_plus_n_squared_partial_passes():
    scenario = scenarios.build("round_sphere", {"factors": 2})
    g = scenario.ctx.g
    point = g.chart.sample(np.random.default_rng(SEED), 1)[0]
    assert len(point) == 4
    with tracing.Tracer() as tr:
        chart.differentiate(g, point, order=2)
    assert tr.calls["dual.partial"] == 4 + 4 * 4
    assert tr.counts["chart.differentiate.calls.order2"] == 1
    assert tr.counts["chart.differentiate.calls.nested"] == 0


def test_remove_restores_every_binding():
    from ggred import checks, genmetric, grassmann, localize
    before = (checks.bismut_curvature, localize.bismut_curvature,
              checks.pfaffian, localize.berezin_integral,
              vars(grassmann.GrassmannElement)["__rmul__"],
              chart.differentiate)
    with tracing.Tracer():
        assert checks.bismut_curvature is genmetric.bismut_curvature
        assert localize.bismut_curvature is genmetric.bismut_curvature
        assert checks.pfaffian is grassmann.pfaffian
        assert localize.berezin_integral is grassmann.berezin_integral
        assert vars(grassmann.GrassmannElement)["__rmul__"] is \
            vars(grassmann.GrassmannElement)["__mul__"]
        assert chart.differentiate is not before[-1]
    after = (checks.bismut_curvature, localize.bismut_curvature,
             checks.pfaffian, localize.berezin_integral,
             vars(grassmann.GrassmannElement)["__rmul__"],
             chart.differentiate)
    assert all(a is b for a, b in zip(after, before))


def command(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_command_prints_the_declared_metrics(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    proc = command("--workload", "reduce", "--seed", str(SEED),
                   "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        declared


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("--workload", "reduce", "--seconds", "1", "--trace", "0",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
