"""The benchmark's three workloads as lists of ggred run configs.

Each entry is ``(label, raw_config)``; the raw config is what a user would
write in a ``ggred run`` config file, minus the seed, which the benchmark
adds from its ``--seed`` argument.  Labels name the per-pair metrics
``checks.<label>.<check>.ms_per_point``.

This module imports nothing from ggred, so the set-up probe can load it
before it starts timing the ggred import.
"""

S3XT2 = {"scenario": "custom", "factory": "ggred.scenarios:s3xt2"}
SPHERE_C05 = {"scenario": "sphere_in_flat", "parameters": {"c": 0.5}}


def _cfg(base, checks):
    if isinstance(base, str):
        base = {"scenario": base}
    return dict(base, checks=list(checks))


# Nested order-2 jets and horizontal lifts, no Grassmann work.
REDUCE = [
    ("s3xt2", _cfg(S3XT2, ["thm63"])),
    ("hopf_flux", _cfg("hopf_flux", ["thm63"])),
    ("product_qg", _cfg("product_qg", ["thm63"])),
    ("hopf", _cfg("hopf", ["thm63"])),
    ("sphere_in_flat", _cfg(SPHERE_C05, ["thm65"])),
]

# Grassmann quartic, elimination chain, Berezin integral and the m = 4
# Euler quadrature (S^2 x S^2, 8^4 = 4096 nodes).
LOCALIZE = [
    ("s3xt2", _cfg(S3XT2, ["localize2", "phi_closed_form"])),
    ("hopf_flux", _cfg("hopf_flux", ["localize2", "phi_closed_form"])),
    ("product_qg", _cfg("product_qg", ["localize2", "phi_closed_form"])),
    ("hopf", _cfg("hopf", ["localize2", "phi_closed_form"])),
    ("sphere_in_flat", _cfg(SPHERE_C05, ["localize3"])),
    ("s2xs2", _cfg({"scenario": "round_sphere",
                    "parameters": {"factors": 2}}, ["euler"])),
]

# One run per built-in scenario plus s3xt2 with the cheap default checks:
# many order-1 jets, little reuse per point, nine set-ups.
BREADTH = [
    ("flat_torus", _cfg("flat_torus", ["bismut_courant", "pair_symmetry",
                                       "euler", "pfaffian"])),
    ("round_sphere", _cfg("round_sphere", ["bismut_courant", "pair_symmetry",
                                           "euler"])),
    ("hopf", _cfg("hopf", ["bismut_courant", "pair_symmetry", "lemma62",
                           "oneill", "ea_validate"])),
    ("hopf_flux", _cfg("hopf_flux", ["bismut_courant", "pair_symmetry",
                                     "lemma62", "ea_validate"])),
    ("product_qg", _cfg("product_qg", ["bismut_courant", "pair_symmetry",
                                       "lemma62", "oneill", "gk_validate",
                                       "gk_reduce", "ea_validate"])),
    ("sphere_in_flat", _cfg("sphere_in_flat", ["bismut_courant",
                                               "pair_symmetry"])),
    ("s3xs1_gk", _cfg("s3xs1_gk", ["bismut_courant", "pair_symmetry",
                                   "gk_validate"])),
    ("s3xt2", _cfg(S3XT2, ["bismut_courant", "pair_symmetry", "lemma62",
                           "ea_validate"])),
]

WORKLOADS = {"reduce": REDUCE, "localize": LOCALIZE, "breadth": BREADTH}


def configs(workload, seed):
    """The workload's ``(label, raw_config)`` pairs with ``seed`` set."""
    return [(label, dict(raw, seed=seed)) for label, raw in WORKLOADS[workload]]


def pair_metric_names():
    """Every ``checks.<label>.<check>.ms_per_point`` name, all workloads."""
    names = []
    for entries in WORKLOADS.values():
        for label, raw in entries:
            names += [f"checks.{label}.{cid}.ms_per_point"
                      for cid in raw["checks"]]
    return names
