"""The same bytes under every OpenBLAS kernel.

Three payloads run in fresh processes under the default kernel and under
``OPENBLAS_CORETYPE=Haswell`` and ``Prescott``, and must give the same
bytes: ``chart.frame_contract`` on seeded random float node stacks;
``chart.inverse`` and the ``chart.gauss_jordan`` determinant on seeded
float stacks of sizes 1 to 8, and ``chart.solve_linear`` on seeded 64-node
systems of sizes 1 to 5 with two columns, with no ``Dual`` level, one and
two nested levels; and the hopf ``thm63`` report at seed 42 (its reduced
curvatures are frame contractions).  The golden reports
(``tests/golden/``) are checked under each kernel by the Tier-1 run under
it.  The variable selects a kernel only in an OpenBLAS built
with ``DYNAMIC_ARCH``; anywhere else the test is skipped.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
KERNELS = [None, "Haswell", "Prescott"]

FRAME_CONTRACT = """
import sys
import numpy as np
from ggred import chart as ch
rng = np.random.default_rng(3)
arr = rng.normal(size=(50, 5, 5, 5, 5))
frames = [rng.normal(size=(50, m, 5)) for m in (3, 4, 2, 3)]
sys.stdout.write(ch.frame_contract(arr, *frames).tobytes().hex())
"""

INVERSE = """
import sys
import numpy as np
from ggred import chart as ch
from ggred import dual
rng = np.random.default_rng(4)
out = []
for n in range(1, 9):
    a = rng.normal(size=(40, n, n)) + n * np.eye(n)
    out += [ch.inverse(a).tobytes(), ch.gauss_jordan(a)[1].tobytes()]


def entry(levels, body=0.0):    # Batch leaves under every level
    if not levels:
        return dual.Batch(body + rng.normal(size=64))
    return dual.Dual(entry(levels[:-1], body), entry(levels[:-1]),
                     levels[-1])


def coeffs(x):
    if isinstance(x, dual.Dual):
        return coeffs(x.val) + coeffs(x.eps)
    return [x.v.tobytes()]


for depth in range(3):
    levels = [dual.fresh_level() for _ in range(depth)]
    for n in range(1, 6):
        m = np.array([[entry(levels, n * (i == j)) for j in range(n)]
                      for i in range(n)], dtype=object)
        rhs = np.array([[entry(levels) for _ in range(2)]
                        for _ in range(n)], dtype=object)
        x = ch.solve_linear(m, rhs)
        out += [c for v in x.ravel() for c in coeffs(v)]
sys.stdout.write(b"".join(out).hex())
"""


def _selects_a_kernel():
    blas = getattr(np.__config__, "CONFIG", {}).get(
        "Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and \
        "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


pytestmark = pytest.mark.skipif(
    not _selects_a_kernel(),
    reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH, so "
           "OPENBLAS_CORETYPE selects no kernel")


def _run(args, kernel):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True).stdout


def test_frame_contract_gives_the_same_bytes_under_every_kernel():
    out = {k: _run(["-c", FRAME_CONTRACT], k) for k in KERNELS}
    assert len(out[None]) == 2 * 8 * 50 * 3 * 4 * 2 * 3
    assert out["Haswell"] == out[None]
    assert out["Prescott"] == out[None]


def test_inverse_and_determinant_give_the_same_bytes_under_every_kernel():
    out = {k: _run(["-c", INVERSE], k) for k in KERNELS}
    assert len(out[None]) == 2 * 8 * (
        40 * sum(n * n + 1 for n in range(1, 9))
        + 64 * 2 * (1 + 2 + 4) * sum(range(1, 6)))
    assert out["Haswell"] == out[None]
    assert out["Prescott"] == out[None]


def test_hopf_thm63_report_gives_the_same_bytes_under_every_kernel(tmp_path):
    reports = {}
    for k in KERNELS:
        path = tmp_path / f"thm63-{k}.json"
        _run(["-m", "ggred.cli", "run", "--scenario", "hopf", "--checks",
              "thm63", "--seed", "42", "--report", str(path)], k)
        reports[k] = path.read_bytes()
    assert b'"status": "pass"' in reports[None]
    assert reports["Haswell"] == reports[None]
    assert reports["Prescott"] == reports[None]
