"""Command-line scenario runner.

Subcommands: ``run`` executes checks against a scenario and emits a JSON or
aligned-text report; ``list`` prints the scenario/check registry; ``validate``
performs schema validation, a light scenario dry run and the applicability
test of the listed checks.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 malformed
configuration, 3 scenario setup violated an invariant.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import chart as ch
from . import checks as ck
from . import dual
from . import quotient as qt
from . import scenarios as sc
from .errors import ConfigError, GgredError, ScenarioError

REPORT_VERSION = "1"

_KNOWN_KEYS = {"scenario", "parameters", "checks", "seed", "factory"}


def load_config(data: dict) -> dict:
    """Validate raw config structure; returns a normalized config dict."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    name = data.get("scenario")
    if not isinstance(name, str):
        raise ConfigError("config needs a 'scenario' name")
    if name != "custom" and name not in sc.BUILTIN:
        raise ConfigError(
            f"unknown scenario {name!r}; known: "
            f"{sorted(sc.BUILTIN) + ['custom']}")
    params = data.get("parameters", {})
    if not isinstance(params, dict):
        raise ConfigError("'parameters' must be an object")
    for k, v in params.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ConfigError(f"parameter {k!r} must be a number")
        if not math.isfinite(v):
            raise ConfigError(f"parameter {k!r} must be finite, got {v}")
    for k in ("points", "order"):
        v = params.get(k, 1)
        if v < 1 or v != int(v):
            raise ConfigError(
                f"parameter {k!r} must be a positive integer, got {v}")
    if params.get("order", 1) > ck.MAX_ORDER:
        raise ConfigError(f"parameter 'order' must be at most "
                          f"{ck.MAX_ORDER}, got {params['order']}")
    if name != "custom":
        bad = set(params) - sc.ALLOWED_PARAMS[name]
        if bad:
            raise ConfigError(
                f"unknown parameter(s) {sorted(bad)} for scenario {name!r}")
    checks = data.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or \
                not all(isinstance(c, str) for c in checks):
            raise ConfigError("'checks' must be a list of check ids")
        if not checks:
            raise ConfigError("'checks' names no check")
        bad = [c for c in checks if c not in ck.REGISTRY]
        if bad:
            raise ConfigError(f"unknown check id(s): {bad}")
    seed = data.get("seed", 42)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be an integer >= 0, got {seed!r}")
    factory = data.get("factory")
    if factory is not None and name != "custom":
        raise ConfigError("'factory' is only valid for the custom scenario")
    return {"scenario": name, "parameters": dict(params), "checks": checks,
            "seed": seed, "factory": factory}


def setup_scenario(cfg: dict) -> sc.Scenario:
    """Instantiate the scenario, dry-run its structural invariants and
    test that every listed check applies to it."""
    scenario = sc.build(cfg["scenario"], cfg["parameters"],
                        factory=cfg.get("factory"))
    rng = np.random.default_rng(cfg["seed"])
    probes = scenario.chart.sample(rng, 3)     # one batch point
    residual = ch.max_abs(dual.batched(scenario.ctx.closure_residual,
                                       dual.chunks((probes,))))
    if not residual <= 1e-8:
        raise ScenarioError(f"flux not closed (|dH| = {residual:.2e})")
    if scenario.quotient is not None:
        rep = qt.validate_extended_action(scenario.ea, scenario.ctx, probes)
        if not rep.passed:
            raise ScenarioError(
                "extended action invalid; failed condition(s): "
                + ", ".join(rep.failing()))
        scenario.quotient.check_maps(rng)
    if scenario.section is not None:
        scenario.section.check_maps(rng)
    for cid in cfg["checks"] or ():
        if not ck.applicable(scenario, cid):
            raise ScenarioError(
                f"check {cid!r} is not applicable to scenario "
                f"{scenario.name!r}")
    return scenario


def run_scenario(cfg: dict) -> dict:
    scenario = setup_scenario(cfg)
    requested = cfg["checks"]
    if requested is None:
        requested = ck.default_checks(scenario)
    results = [ck.run_check(scenario, cid, cfg["seed"]) for cid in requested]
    overall = "pass" if all(r.passed for r in results) else "fail"
    return {
        "version": REPORT_VERSION,
        "scenario": cfg["scenario"],
        "parameters": {k: cfg["parameters"][k]
                       for k in sorted(cfg["parameters"])},
        "seed": cfg["seed"],
        "checks": [{"id": r.id, "points": r.points,
                    "max_residual": r.max_residual,
                    "tolerance": r.tolerance, "status": r.status}
                   for r in results],
        "status": overall,
    }


def format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    lines = [f"scenario: {report['scenario']}   seed: {report['seed']}   "
             f"status: {report['status'].upper()}"]
    if report["parameters"]:
        lines.append("parameters: " + ", ".join(
            f"{k}={v}" for k, v in report["parameters"].items()))
    lines.append(f"{'check':<18}{'points':>8}{'max residual':>16}"
                 f"{'tolerance':>12}{'status':>14}")
    for c in report["checks"]:
        lines.append(f"{c['id']:<18}{c['points']:>8}"
                     f"{c['max_residual']:>16.3e}{c['tolerance']:>12.1e}"
                     f"{c['status']:>14}")
    return "\n".join(lines) + "\n"


def list_text() -> str:
    lines = ["scenarios:"]
    for name in sorted(sc.BUILTIN):
        params = ", ".join(sorted(sc.ALLOWED_PARAMS[name])) or "-"
        lines.append(f"  {name:<16} parameters: {params}")
    lines.append("  custom           parameters: factory-defined "
                 "(config key 'factory': 'module:function')")
    lines.append("checks:")
    for cid in ck.CHECK_ORDER:
        spec = ck.REGISTRY[cid]
        extra = "  [exploratory]" if spec.exploratory else ""
        lines.append(f"  {cid:<18} tol {spec.tolerance:<8.0e} "
                     f"{spec.description}{extra}")
    return "\n".join(lines) + "\n"


def _parse_set(items):
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        if not _:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        try:
            num = float(val)
        except ValueError as exc:
            raise ConfigError(f"--set value for {key!r} must be numeric") \
                from exc
        out[key] = int(num) if num.is_integer() and "." not in val \
            and "e" not in val.lower() else num
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ggred",
        description="verification scenarios for metric reduction geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run checks against a scenario")
    runp.add_argument("config", nargs="?", help="JSON config path")
    runp.add_argument("--scenario", help="built-in scenario name")
    runp.add_argument("--set", action="append", metavar="KEY=VALUE",
                      help="scenario parameter override")
    runp.add_argument("--checks", help="comma-separated check ids")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--report", help="write the report to this path")
    runp.add_argument("--format", choices=("json", "text"), default="text")

    sub.add_parser("list", help="print scenarios and checks")

    valp = sub.add_parser("validate",
                          help="validate a config and dry-run the scenario")
    valp.add_argument("config", help="JSON config path")
    return parser


def _read_config(path):
    """The raw JSON of a config file; ConfigError if missing or invalid."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def _config_from_args(args) -> dict:
    if args.config and args.scenario:
        raise ConfigError("give either a config file or --scenario")
    if args.config:
        raw = _read_config(args.config)
    elif args.scenario:
        raw = {"scenario": args.scenario, "parameters": _parse_set(args.set)}
    else:
        raise ConfigError("run needs a config path or --scenario")
    if isinstance(raw, dict) and args.checks is not None:
        raw = {**raw, "checks": [c.strip() for c in args.checks.split(",")
                                 if c.strip()]}
    if isinstance(raw, dict) and args.seed is not None:
        raw = {**raw, "seed": args.seed}
    return load_config(raw)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            sys.stdout.write(list_text())
            return 0
        if args.command == "validate":
            setup_scenario(load_config(_read_config(args.config)))
            sys.stdout.write("ok\n")
            return 0
        cfg = _config_from_args(args)
        report = run_scenario(cfg)
        text = format_report(report, args.format)
        if args.report:
            try:
                with open(args.report, "w", encoding="utf-8") as fh:
                    fh.write(format_report(report, "json"))
            except OSError as exc:
                raise ConfigError(f"cannot write the report: {exc}") from exc
        sys.stdout.write(text)
        return 0 if report["status"] == "pass" else 1
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except GgredError as exc:
        sys.stderr.write(f"scenario error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
