"""Acceptance criteria, one test per criterion, pass/fail line printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines with residuals and runtimes.
"""

import json
import time

import numpy as np

from ggred import checks as ck
from ggred import cli
from ggred import gk
from ggred import localize as lz
from ggred import quotient as qt
from ggred import scenarios as sc
from ggred import submanifold as sm


def report(cid, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def test_criterion_01_bracket_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in (("flat_torus", {"dim": 3, "flux": 1.3}),
                         ("hopf_flux", {"flux": 1.0})):
        s = sc.build(name, params)
        res = ck.run_check(s, "bismut_courant", seed=42, points=100)
        worst = max(worst, res.max_residual)
    dt = time.perf_counter() - t0
    report("criterion 1 (bracket identity)",
           worst <= 1e-8 and dt < 10.0,
           f"max residual {worst:.2e} <= 1e-8 over 2x100 field pairs, "
           f"{dt:.1f}s < 10s")


def test_criterion_02_pair_symmetry():
    worst = 0.0
    for name, params in (("flat_torus", {"dim": 3, "flux": 1.3}),
                         ("hopf_flux", {}), ("s3xs1_gk", {}),
                         ("sphere_in_flat", {"c": 1.0})):
        s = sc.build(name, params)
        res = ck.run_check(s, "pair_symmetry", seed=42, points=100)
        worst = max(worst, res.max_residual)
    report("criterion 2 (curvature pair symmetry)", worst <= 1e-8,
           f"max residual {worst:.2e} <= 1e-8 at 100 points per scenario")


def test_criterion_03_horizontal_curvature():
    worst = 0.0
    for flux in (0.0, 1.0):
        s = sc.build("hopf", {"flux": flux})
        res = ck.run_check(s, "lemma62", seed=42, points=25)
        worst = max(worst, res.max_residual)
    report("criterion 3 (horizontal curvature formula)", worst <= 1e-8,
           f"max residual {worst:.2e} <= 1e-8 (flux on and off)")


def test_criterion_04_quotient_curvature():
    t0 = time.perf_counter()
    worst = 0.0
    for maker, params in (("hopf", {"flux": 0.0}), ("hopf_flux", {}),
                          ("product_qg", {})):
        s = sc.build(maker, params)
        res = ck.run_check(s, "thm63", seed=42, points=50)
        worst = max(worst, res.max_residual)
    s = sc.build("custom", {}, factory="ggred.scenarios:s3xt2")
    res = ck.run_check(s, "thm63", seed=42, points=50)
    worst = max(worst, res.max_residual)
    # special value: unit bundle reduces to sectional curvature 4/r^2, r=1
    s0 = sc.build("hopf", {"flux": 0.0})
    rng = np.random.default_rng(1)
    sec_err = 0.0
    for q in s0.quotient.quotient.sample(rng, 5):
        t = qt.reduced_curvature_quotient(qt.LiftedPoint(s0.quotient, q))
        sec_err = max(sec_err, abs(t[0, 0, 1, 1, 0] - 4.0))  # node 0
    dt = time.perf_counter() - t0
    report("criterion 4 (quotient curvature cross-check)",
           worst <= 1e-6 and sec_err <= 1e-6 and dt < 60.0,
           f"componentwise {worst:.2e} <= 1e-6 at 50 pts/scenario, "
           f"sectional |K-4| = {sec_err:.2e}, {dt:.1f}s < 60s")


def test_criterion_05_submersion_degeneration():
    worst = 0.0
    for name in ("hopf", "product_qg"):
        s = sc.build(name, {"flux": 0.0} if name == "hopf" else {})
        res = ck.run_check(s, "oneill", seed=42, points=25)
        worst = max(worst, res.max_residual)
    report("criterion 5 (flux-free submersion formula)", worst <= 1e-6,
           f"max residual {worst:.2e} <= 1e-6")


def test_criterion_06_locus_curvature():
    worst = 0.0
    gauss_err = 0.0
    rng = np.random.default_rng(2)
    for cval in (0.0, 0.5, 2.0):
        s = sc.build("sphere_in_flat", {"c": cval})
        res = ck.run_check(s, "thm65", seed=42, points=50)
        worst = max(worst, res.max_residual)
        for u in s.section.nchart.sample(rng, 3):
            t = sm.reduced_curvature_sub(sm.LocusPoint(s.section, u))
            gauss_err = max(gauss_err, abs(t[0, 0, 1, 1, 0] - 1.0))
    report("criterion 6 (zero-locus curvature cross-check)",
           worst <= 1e-6 and gauss_err <= 1e-6,
           f"componentwise {worst:.2e} <= 1e-6 for flux scale in "
           f"{{0, 0.5, 2}}, |K-1| = {gauss_err:.2e}")


def test_criterion_07_localization_equals_geometry():
    t0 = time.perf_counter()
    worst = 0.0
    for name, params in (("hopf", {"flux": 0.0}), ("hopf_flux", {}),
                         ("product_qg", {})):
        s = sc.build(name, params)
        res = ck.run_check(s, "localize2", seed=42, points=100)
        worst = max(worst, res.max_residual)
    s = sc.build("custom", {}, factory="ggred.scenarios:s3xt2")
    res = ck.run_check(s, "localize2", seed=42, points=100)
    worst = max(worst, res.max_residual)
    for cval in (0.0, 0.5, 2.0):
        s = sc.build("sphere_in_flat", {"c": cval})
        res = ck.run_check(s, "localize3", seed=42, points=100)
        worst = max(worst, res.max_residual)
    dt = time.perf_counter() - t0
    report("criterion 7 (localization = geometry)",
           worst <= 1e-6 and dt < 120.0,
           f"exponent-vs-curvature {worst:.2e} <= 1e-6 at 100 pts/scenario, "
           f"{dt:.1f}s < 120s")


def test_criterion_08_multiplier_closed_form():
    worst = 0.0
    for name, params in (("hopf_flux", {}),):
        s = sc.build(name, params)
        res = ck.run_check(s, "phi_closed_form", seed=42, points=25)
        worst = max(worst, res.max_residual)
    s = sc.build("custom", {}, factory="ggred.scenarios:s3xt2")
    res = ck.run_check(s, "phi_closed_form", seed=42, points=25)
    worst = max(worst, res.max_residual)
    report("criterion 8 (eliminated multiplier closed form)",
           worst <= 1e-8, f"coefficientwise {worst:.2e} <= 1e-8")


def test_criterion_09_euler_characteristic():
    t0 = time.perf_counter()
    s = sc.build("round_sphere", {})
    chi2 = lz.euler_characteristic(s.ctx, s.euler_domain, order=16)
    s = sc.build("flat_torus", {})
    chi0 = lz.euler_characteristic(s.ctx, s.euler_domain, order=8)
    s = sc.build("round_sphere", {"factors": 2})
    chi4 = lz.euler_characteristic(s.ctx, s.euler_domain, order=8)
    dt = time.perf_counter() - t0
    ok = (abs(chi2 - 2.0) <= 0.02 and abs(chi0) <= 1e-10
          and abs(chi4 - 4.0) <= 0.08 and dt < 60.0)
    report("criterion 9 (Euler characteristic quadrature)", ok,
           f"sphere {chi2:.6f} (2 +/- 1%), torus {chi0:.1e} (1e-10), "
           f"product {chi4:.6f} (4 +/- 2%), {dt:.1f}s < 60s")


def test_criterion_10_pfaffian_property():
    rng = np.random.default_rng(10)
    from ggred.grassmann import pfaffian
    worst = 0.0
    for n in (2, 4, 6, 8):
        for _ in range(250):
            a = rng.normal(size=(n, n))
            a = a - a.T
            det = np.linalg.det(a)
            worst = max(worst,
                        abs(pfaffian(a) ** 2 - det) / max(abs(det), 1.0))
    report("criterion 10 (squared fermionic Gaussian)", worst <= 1e-10,
           f"relative residual {worst:.2e} <= 1e-10 over 1000 matrices")


def test_criterion_11_structure_pair_checks():
    s = sc.build("s3xs1_gk", {})
    res = ck.run_check(s, "gk_validate", seed=42)
    ok1 = res.max_residual <= 1e-8
    s = sc.build("product_qg", {})
    res2 = ck.run_check(s, "gk_reduce", seed=42)
    ok2 = res2.max_residual <= 1e-6
    sbad = sc.build("s3xs1_gk", {"jplus_perturb": 1e-3})
    rng = np.random.default_rng(3)
    rep = gk.validate_bihermitian(sbad.gk, sbad.ctx,
                                  sbad.chart.sample(rng, 3), rng=rng)
    ok3 = (not rep.passed) and rep.conditions["parallel"].residual > 1e-4
    report("criterion 11 (structure-pair validation and reduction)",
           ok1 and ok2 and ok3,
           f"group-block residual {res.max_residual:.2e} <= 1e-8, reduced "
           f"residual {res2.max_residual:.2e} <= 1e-6, perturbation flagged")


def test_criterion_12_action_validator():
    rng = np.random.default_rng(4)
    ok_accept = True
    for name in ("hopf", "hopf_flux", "product_qg"):
        s = sc.build(name, {})
        rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(rng, 4))
        ok_accept = ok_accept and rep.passed
    s = sc.build("custom", {}, factory="ggred.scenarios:s3xt2")
    rep = qt.validate_extended_action(s.ea, s.ctx, s.chart.sample(rng, 4))
    ok_accept = ok_accept and rep.passed

    named = []
    for param, condition in (("break_isotropy", "isotropy"),
                             ("break_flux", "flux_match"),
                             ("break_invariance", "invariance")):
        sbad = sc.build("hopf", {param: 0.05})
        rep = qt.validate_extended_action(sbad.ea, sbad.ctx,
                                          sbad.chart.sample(rng, 4))
        named.append(condition in rep.failing())
    report("criterion 12 (extended-action validator)",
           ok_accept and all(named),
           f"builtins accepted, violations flagged by name: {named}")


def test_criterion_13_determinism():
    cfg = cli.load_config({"scenario": "hopf_flux",
                           "parameters": {"flux": 1.0},
                           "checks": ["lemma62", "thm63", "localize2"],
                           "seed": 42})
    a = json.dumps(cli.run_scenario(cfg), sort_keys=False)
    b = json.dumps(cli.run_scenario(cfg), sort_keys=False)
    report("criterion 13 (byte-identical reports)",
           a == b and a.encode() == b.encode(),
           "two runs with the same seed produced identical JSON bytes")
