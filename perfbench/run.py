"""ggred benchmark: time to a verdict on three workloads, and where it goes.

Run from the repository root:

    python3 perfbench/run.py --workload reduce --seed 42 --seconds 32 --trace 0

``--trace 0`` runs the workload's configs through ``cli.load_config`` and
``cli.run_scenario`` in a closed loop, one process, one thread, for
``--seconds`` (at least two passes), times set-up in fresh processes, and
prints the end-to-end metrics, with seconds scaled to a reference speed
(see ``reference.py``).  ``--trace 1`` makes one pass timed at the
checks boundary only and one pass with every layer traced (see
``tracing.py``), and prints the per-layer metrics.  Both check that every
check passes and that each check's report bytes repeat across passes.
The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` (checks) and ``metrics``.  ``perfbench/README.md`` says how to
read the numbers.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from importlib import metadata
from time import perf_counter

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5      # fresh processes per --trace 0 run; median reported
IMPORT_PROBES = 3     # fresh processes per --trace 1 run
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2        # the second pass checks that reports repeat
EPS = 2.0 ** -52      # a zero residual counts as machine epsilon

# Spans reported by call count, by self time, and by percentiles of their
# per-call duration.
CALLS = ("chart.solve_linear", "dual.partial", "quotient.horizontal_lift",
         "grassmann.mul", "localize.curvature_quartic",
         "genmetric.bismut_curvature")
SELF = ("chart.differentiate", "chart.riemann", "chart.christoffel",
        "chart.solve_linear", "quotient.horizontal_lift", "grassmann.mul",
        "grassmann.exp", "grassmann.berezin_integral",
        "localize.curvature_quartic", "localize.build_quotient_action",
        "localize.euler_density", "genmetric.bismut_curvature",
        "genmetric.nabla_flux")
PERCENTILES = ("quotient.reduced_curvature_direct",
               "quotient.reduced_curvature_quotient",
               "submanifold.reduced_curvature_sub_direct",
               "localize.localize_model", "localize.point_frame_quotient")
JET_COUNTS = ("chart.differentiate.calls.order1",
              "chart.differentiate.calls.order2",
              "chart.differentiate.calls.nested")


def run_pass(cli, configs):
    """Run each config once: ``[(seconds, report or exception)]``."""
    out = []
    for _, raw in configs:
        t0 = perf_counter()
        try:
            report = cli.run_scenario(cli.load_config(raw))
        except Exception as exc:  # a raising check is a failed check
            report = exc
        out.append((perf_counter() - t0, report))
    return out


def check_rows(configs, outcome):
    """``{(label, check): (status, report bytes, residual headroom)}``."""
    rows = {}
    for (label, raw), (_, report) in zip(configs, outcome):
        entries = {} if isinstance(report, Exception) else \
            {c["id"]: c for c in report["checks"]}
        for cid in raw["checks"]:
            c = entries.get(cid)
            if c is None:
                rows[label, cid] = (f"raised {report!r}", None, None)
                continue
            headroom = math.log10(c["tolerance"] / max(c["max_residual"], EPS))
            rows[label, cid] = (c["status"], json.dumps(c), headroom)
    return rows


def failures(baseline, rows, what):
    """Messages for checks that did not pass or whose bytes moved."""
    out = []
    for (label, cid), (status, data, _) in rows.items():
        if status != "pass":
            out.append(f"{label} {cid}: status {status} ({what})")
        elif baseline is not None and data != baseline[label, cid][1]:
            out.append(f"{label} {cid}: report bytes differ ({what})")
    return out


def probe(workload, seed):
    """Set-up timings from one fresh process (see ``setup_probe.py``)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=False)
    if proc.returncode:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(cli, workload, seed, seconds):
    configs = workloads.configs(workload, seed)
    passes, pass_s, scaled_s = [], [], []
    start = perf_counter()
    with reference.Sampler() as sampler:
        while len(passes) < MIN_PASSES or \
                perf_counter() - start + statistics.median(pass_s) <= seconds:
            first, spent = len(sampler.samples), sampler.spent_s
            outcome = run_pass(cli, configs)
            passes.append(outcome)
            pass_s.append(sum(dt for dt, _ in outcome)
                          - (sampler.spent_s - spent))
            speed = statistics.mean(sampler.samples[first:]
                                    or [reference.sample()])
            scaled_s.append(pass_s[-1] * reference.NOMINAL_S / speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = [probe(workload, seed) for _ in range(SETUP_PROBES)]
    setup = [p["setup_s"] * reference.NOMINAL_S / p["reference_s"]
             for p in probes]

    baseline = check_rows(configs, passes[0])
    problems, attempted = [], 0
    for i, outcome in enumerate(passes):
        rows = check_rows(configs, outcome)
        attempted += len(rows)
        problems += failures(baseline, rows, f"pass {i + 1}")
    headrooms = [h for _, _, h in baseline.values() if h is not None]
    metrics = {
        "run_s": (statistics.median(scaled_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "residual_headroom_decades": (min(headrooms, default=0.0),
                                      "decades"),
    }
    notes = [f"passes {len(passes)}, raw pass seconds "
             + " ".join(f"{s:.3f}" for s in pass_s),
             f"reference jet {1e3 * statistics.median(sampler.samples):.4f}"
             f" ms (median of {len(sampler.samples)})",
             "raw set-up seconds "
             + " ".join(f"{p['setup_s']:.3f}" for p in probes)]
    return metrics, attempted, problems, notes


def traced(cli, workload, seed):
    from ggred import checks

    configs = workloads.configs(workload, seed)

    # Pass A: only the checks boundary is timed, per (label, check).
    pair_s, pair_points, current = Counter(), Counter(), [None]
    original = checks.run_check

    def run_check(scenario, cid, *args, **kwargs):
        t0 = perf_counter()
        result = original(scenario, cid, *args, **kwargs)
        pair_s[current[0], cid] += perf_counter() - t0
        pair_points[current[0], cid] += result.points
        return result

    checks.run_check = run_check
    try:
        plain = []
        for entry in configs:
            current[0] = entry[0]
            plain += run_pass(cli, [entry])
    finally:
        checks.run_check = original

    # Pass B: every layer traced.
    with tracing.Tracer(PERCENTILES) as tr:
        outcome = run_pass(cli, configs)

    imports = [probe(workload, seed)["import_s"]
               for _ in range(IMPORT_PROBES)]

    baseline = check_rows(configs, plain)
    rows = check_rows(configs, outcome)
    problems = failures(None, baseline, "untraced") + \
        failures(baseline, rows, "traced")
    attempted = len(baseline) + len(rows)

    plain_s = sum(dt for dt, _ in plain)
    traced_s = sum(dt for dt, _ in outcome)
    metrics = layer_metrics(tr, pair_s, pair_points,
                            statistics.median(imports), traced_s / plain_s)
    notes = [f"checks-boundary pass {plain_s:.3f} s, traced pass "
             f"{traced_s:.3f} s, {sum(pair_points.values())} points"]
    return metrics, attempted, problems, notes


def layer_metrics(tr, pair_s, pair_points, import_s, overhead_ratio):
    """Per-layer metrics from a traced pass and a checks-boundary pass.

    ``pair_s`` and ``pair_points`` hold the checks-boundary seconds and
    points per ``(label, check)``; a pair the workload does not run reads 0.
    """
    points = sum(pair_points.values())
    metrics = {}
    for name in workloads.pair_metric_names():
        key = tuple(name.split(".")[1:3])
        metrics[name] = (1e3 * pair_s[key] / pair_points[key]
                         if pair_points[key] else 0.0, "ms/pt")
    for name in JET_COUNTS:
        metrics[name] = (tr.counts[name], "count")
    metrics["chart.differentiate.calls_per_point"] = (
        tr.calls["chart.differentiate"] / points if points else 0.0, "count")
    for name in CALLS:
        metrics[f"{name}.calls"] = (tr.calls[name], "count")
    for name in SELF:
        metrics[f"{name}.self_s"] = (tr.self_s[name], "s")
    for name in PERCENTILES:
        metrics[f"{name}.ms.p50"] = (tr.percentile_ms(name, 50), "ms")
        metrics[f"{name}.ms.p95"] = (tr.percentile_ms(name, 95), "ms")
    metrics["scenarios.build.s"] = (tr.total_s["scenarios.build"], "s")
    metrics["cli.setup_scenario.s"] = (tr.total_s["cli.setup_scenario"], "s")
    metrics["import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {"python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(), "seed": seed,
            "load1_start": os.getloadavg()[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "ggred", "cli.py")):
        print(f"perfbench: no ggred sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ggred import cli

    env = environment(args.seed)
    if args.trace:
        metrics, attempted, problems, notes = traced(
            cli, args.workload, args.seed)
    else:
        metrics, attempted, problems, notes = end_to_end(
            cli, args.workload, args.seed, args.seconds)
    env["load1_end"] = os.getloadavg()[0]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    for problem in problems:
        print("FAIL", problem)
    print(f"{'fail_ratio':<48}{len(problems) / attempted:>16.6g} ratio "
          f"({len(problems)} of {attempted} checks)")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48}{value:>16.6g} {unit}")
    print("env", json.dumps(env))
    print(json.dumps({
        "correct": not problems, "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
