"""Committed golden reports: regenerate them all and compare bytes.

    python3 tests/golden/regenerate.py            # exit 1 on any difference
    python3 tests/golden/regenerate.py --update   # rewrite reports/

The set, each at seeds 42 and 7, run in one process through ``ggred run``:

* the runs of CI's hash-seed step (``.github/workflows/tier1.yml``);
* the default checks of every built-in scenario, of the flat 4-torus and
  of ``s3xt2``;
* the configs of the three benchmark workloads (``perfbench/workloads.py``,
  read only).

Each report is the JSON that ``ggred run --report`` writes, one file per
report under ``reports/``, so a moved residual reads as a diff; for a
report that differs, the script prints each moved row: the check id, its
old -> new ``max_residual`` and its status.

No report byte depends on the OpenBLAS kernel: every float inverse,
determinant and solve goes through the one elimination
``chart.gauss_jordan`` (``chart.solve_linear`` multiplies by the inverse of
its body), and no float product on a node stack calls BLAS, so the same
files hold under every kernel (``OPENBLAS_CORETYPE``).
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
REPORTS = os.path.join(HERE, "reports")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ggred import cli  # noqa: E402
from ggred.scenarios import BUILTIN  # noqa: E402

SEEDS = (42, 7)
S3XT2 = {"scenario": "custom", "factory": "ggred.scenarios:s3xt2"}

# CI's hash-seed step, word for word: the config files it writes, then one
# run per line, the report's name and the arguments of `ggred run`
CI_FILES = {
    "s3xt2-chain.json": dict(S3XT2, parameters={"points": 3},
                             checks=["localize2", "phi_closed_form"]),
    "s3xt2-thm63.json": dict(S3XT2, checks=["thm63"]),
}
CI_RUNS = [
    "report --scenario hopf_flux --checks bismut_courant,pair_symmetry,lemma62,thm63,ea_validate,localize2,phi_closed_form --set points=3",
    "locus --scenario sphere_in_flat --set c=0.5 --set points=3 --checks thm65,localize3",
    "gk --scenario product_qg --checks gk_validate,gk_reduce,oneill --set points=3",
    "chain-s3xt2 s3xt2-chain.json",
    "chain-qg --scenario product_qg --checks localize2,phi_closed_form --set points=3",
    "thm63-s3xt2 s3xt2-thm63.json",
    "thm65-chunks --scenario sphere_in_flat --set c=0.5 --set points=70 --checks thm65",
    "chain-chunks --scenario hopf_flux --set points=70 --checks localize2,phi_closed_form",
    "localize3-chunks --scenario sphere_in_flat --set c=0.5 --set points=70 --checks localize3",
    "frames-chunks --scenario hopf --set points=70 --checks lemma62,oneill,ea_validate",
    "gk-chunks --scenario product_qg --set points=70 --checks gk_validate,gk_reduce",
    "chain-one --scenario hopf_flux --set points=1 --checks localize2,phi_closed_form",
    "localize3-one --scenario sphere_in_flat --set c=0.5 --set points=1 --checks localize3",
    "gk4 --scenario s3xs1_gk --checks bismut_courant,pair_symmetry,gk_validate --set points=3",
    "euler-flux --scenario s3xs1_gk --checks euler_flux --set order=4",
    "euler-s2xs2 --scenario round_sphere --set factors=2 --set order=4 --checks euler",
]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(ROOT, "perfbench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def runs():
    """``(name, arguments of ggred run)`` for every report, seeds included;
    a config-file argument names a key of ``files``, written before the
    run."""
    plain = [(f"ci-{name}", args.split()) for name, _, args in
             (run.partition(" ") for run in CI_RUNS)]
    plain += [(f"default-{name}", ["--scenario", name])
              for name in sorted(BUILTIN)]
    plain.append(("default-flat_torus-dim4",
                  ["--scenario", "flat_torus", "--set", "dim=4"]))
    plain.append(("default-s3xt2", ["default-s3xt2.json"]))
    for workload, entries in _workloads().items():
        plain += [(f"{workload}-{label}", [f"{workload}-{label}.json"])
                  for label, _ in entries]
    return [(f"{name}-seed{seed}", [*args, "--seed", str(seed)])
            for seed in SEEDS for name, args in plain]


def files():
    """The config files the runs read, by name."""
    out = dict(CI_FILES, **{"default-s3xt2.json": S3XT2})
    for workload, entries in _workloads().items():
        out.update({f"{workload}-{label}.json": raw
                    for label, raw in entries})
    return out


def generate():
    """Every report's JSON text, by file name."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files().items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
        for name, args in runs():
            path = os.path.join(tmp, "report.json")
            args = [os.path.join(tmp, a) if a.endswith(".json") else a
                    for a in args]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", *args, "--report", path])
            if code not in (0, 1):      # 1: a check failed, still a report
                raise SystemExit(f"{name}: ggred run exited {code}")
            with open(path, encoding="utf-8") as fh:
                out[f"{name}.json"] = fh.read()
    return out


def moved_rows(old, new):
    """Each check row of two report texts whose residual or status moved,
    as one line (a row on one side only reads None on the other)."""
    rows = [{c["id"]: (c["max_residual"], c["status"])
             for c in json.loads(text)["checks"]} for text in (old, new)]
    for cid in dict.fromkeys([*rows[0], *rows[1]]):
        (res0, st0), (res1, st1) = (r.get(cid, (None, None)) for r in rows)
        if (res0, st0) != (res1, st1):
            yield f"  {cid}: max_residual {res0!r} -> {res1!r}, " \
                  f"status {st0} -> {st1}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed reports")
    update = parser.parse_args(argv).update
    reports = generate()
    os.makedirs(REPORTS, exist_ok=True)
    committed = set(os.listdir(REPORTS))
    if update:
        for name in committed - set(reports):
            os.remove(os.path.join(REPORTS, name))
        for name, text in reports.items():
            with open(os.path.join(REPORTS, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"wrote {len(reports)} reports to {REPORTS}")
        return 0
    bad = sorted(committed ^ set(reports))     # missing or left over
    for name in bad:
        print(f"differs from its golden report: {name}")
    for name in sorted(committed & set(reports)):
        with open(os.path.join(REPORTS, name), encoding="utf-8") as fh:
            old = fh.read()
        if old != reports[name]:
            bad.append(name)
            print(f"differs from its golden report: {name}")
            for row in moved_rows(old, reports[name]):
                print(row)
    print(f"{len(reports)} reports, {len(bad)} differences")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
