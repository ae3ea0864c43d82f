"""The committed golden reports (``tests/golden/``) and the gate on them.

``tests/golden/regenerate.py`` regenerates every report in one process
and exits 1 when one differs from its file by a byte.  The bytes do not
depend on the OpenBLAS kernel, so the script runs under whatever kernel
the tests run under (CI runs Tier-1 under the default kernel, ``Prescott``
and ``Haswell``).  For a report that differs, the script prints each moved
row (check id, old -> new ``max_residual``, status); a change that moves a
residual lists those rows and rewrites the files with ``--update``.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "golden", "regenerate.py")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")


def _load_script():
    spec = importlib.util.spec_from_file_location("regenerate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_ci_runs_are_the_workflow_runs():
    golden = _load_script()
    with open(WORKFLOW, encoding="utf-8") as fh:
        text = fh.read()
    step = text[text.index("runs=("):text.index("for hashseed")]
    assert re.findall(r'^\s+"(.+)"$', step, re.M) == golden.CI_RUNS
    for name, raw in golden.CI_FILES.items():
        assert f"echo '{json.dumps(raw)}' > {name}" in text


def test_one_file_per_report():
    golden = _load_script()
    names = [f"{name}.json" for name, _ in golden.runs()]
    assert len(names) == len(set(names)) == 2 * (16 + 9 + 19)
    assert sorted(os.listdir(golden.REPORTS)) == sorted(names)


def test_every_report_keeps_its_golden_bytes():
    out = subprocess.run([sys.executable, SCRIPT], capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr


def test_a_differing_report_prints_its_moved_rows():
    golden = _load_script()
    old = json.dumps({"checks": [
        {"id": "thm63", "max_residual": 4.4e-16, "status": "pass"},
        {"id": "oneill", "max_residual": 0.0, "status": "pass"}]})
    new = json.dumps({"checks": [
        {"id": "thm63", "max_residual": 6.6e-16, "status": "pass"},
        {"id": "oneill", "max_residual": 0.0, "status": "pass"},
        {"id": "lemma62", "max_residual": 2.0, "status": "fail"}]})
    assert list(golden.moved_rows(old, new)) == [
        "  thm63: max_residual 4.4e-16 -> 6.6e-16, status pass -> pass",
        "  lemma62: max_residual None -> 2.0, status None -> fail"]
