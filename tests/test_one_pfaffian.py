"""One Pfaffian routine for every size, and no SciPy.

``grassmann.pfaffian`` expands along the first row for every even n up to
``MAX_GENERATORS``, each sub-Pfaffian once per call: its bits are those of
the unmemoized expansion, and its sign that of the Berezin integral.  With
the Schur branch gone, importing ggred loads no SciPy.  The dual solve and
the zero-locus map check reject a NaN with their named errors.
"""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import ggred
from ggred import chart as ch
from ggred import scenarios as sc
from ggred.dual import Dual
from ggred.errors import (AsymmetryError, OddDimensionError, ScenarioError,
                          SingularMetricError)
from ggred.grassmann import (MAX_GENERATORS, fermionic_gaussian_berezin,
                             pfaffian)

NAN = float("nan")


def pf_first_row(a, idx):
    """First-row expansion of the minor on rows ``idx``, no memo."""
    if len(idx) == 2:
        return a[idx[0]][idx[1]]
    first, rest = idx[0], idx[1:]
    total = 0.0
    for k, j in enumerate(rest):
        sign = -1.0 if k % 2 else 1.0
        total += sign * a[first][j] * pf_first_row(
            a, [i for i in rest if i != j])
    return total


def antisymmetric(n, seed):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return a - a.T


@pytest.mark.parametrize("n", [10, 12, 14])
def test_pfaffian_has_the_bits_of_the_unmemoized_expansion(n):
    a = antisymmetric(n, 100 * n)
    got = pfaffian(a)
    assert type(got) is float
    assert got == pf_first_row(a.tolist(), list(range(n)))


@pytest.mark.parametrize("n", [10, 12])
def test_pfaffian_value_and_sign_agree_with_the_berezin_integral(n):
    a = antisymmetric(n, n)
    pf, berezin = pfaffian(a), fermionic_gaussian_berezin(a)
    assert np.sign(pf) == np.sign(berezin)
    assert abs(pf - berezin) <= 1e-12 * abs(berezin)


def test_pfaffian_takes_every_even_size_up_to_the_generator_limit():
    a = antisymmetric(MAX_GENERATORS, 16)
    det = np.linalg.det(a)
    assert abs(pfaffian(a) ** 2 - det) <= 1e-10 * abs(det)


def test_pfaffian_rejects_too_many_rows_an_odd_size_and_a_nan():
    with pytest.raises(ValueError, match="at most 16 rows"):
        pfaffian(antisymmetric(18, 0))
    with pytest.raises(OddDimensionError):
        pfaffian(antisymmetric(11, 0))
    a = antisymmetric(10, 0)
    a[3, 7] = NAN
    with pytest.raises(AsymmetryError):
        pfaffian(a)


def test_importing_the_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(ggred.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, ggred.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


NAN_SOLVES = [
    np.array([[1.0, NAN], [0.0, 1.0]], dtype=object),
    np.array([[1.0, 0.0], [0.0, NAN]], dtype=object),
    np.array([[2.0, 1.0], [NAN, 1.0]], dtype=object),
    np.array([[Dual(1.0, 1.0, 0), 0.0], [0.0, Dual(NAN, 0.0, 0)]],
             dtype=object),
]


@pytest.mark.parametrize("m", NAN_SOLVES)
def test_a_nan_pivot_is_a_singular_dual_solve(m):
    singular = "linear system numerically singular"
    with pytest.raises(SingularMetricError, match=singular):
        ch.inverse(m)
    with pytest.raises(SingularMetricError, match=singular):
        ch.inverse(m, definite=True)


def test_a_nan_embedding_jacobian_is_a_scenario_error():
    scn = sc.build("sphere_in_flat", {}).section

    def embed(u):
        p = scn.embed(u)
        return [p[0] + NAN * u[0], p[1], p[2]]
    bad = dataclasses.replace(scn, embed=embed)
    with pytest.raises(ScenarioError, match="embedding jacobian"):
        bad.check_maps(np.random.default_rng(0))


def test_a_rank_one_embedding_is_still_a_scenario_error():
    scn = sc.build("sphere_in_flat", {}).section
    bad = dataclasses.replace(scn, embed=lambda u: [u[0], u[0], 1.0])
    with pytest.raises(ScenarioError, match="embedding jacobian"):
        bad.check_maps(np.random.default_rng(0))
