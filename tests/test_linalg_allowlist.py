"""No ``np.linalg`` routine reaches report bytes.

LAPACK's results depend on the OpenBLAS kernel, so every float inverse,
determinant and solve in the package goes through ``chart.gauss_jordan``
(``chart.solve_linear`` through the inverse of its body).  The package's
source is parsed, and
every ``np.linalg`` call must be on the allowlist below, each entry the
routine and the module-level function it sits in, with the reason its
result writes no bytes that depend on the kernel.  Importing from
``numpy.linalg`` directly is not allowed at all.
"""

import ast
import pathlib

from ggred import chart as ch

SRC = pathlib.Path(ch.__file__).parent

ALLOWED = {
    # the definiteness test: a decision only, its factor is dropped
    ("cholesky", "inverse"),
    # a 0/1 independence threshold on the Gram matrix's eigenvalues
    ("eigvalsh", "validate_extended_action"),
    # the tau_pm defects read exactly 0 on product_qg, checked on 5 batch
    # points, whatever the SVD rounds
    ("norm", "check_tau_invariance"),
}


def _linalg_calls():
    """(routine, enclosing module-level function, file) of every call of
    an ``np.linalg`` attribute, and the offending imports."""
    calls, imports = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        isinstance(node.func.value, ast.Attribute) and \
                        node.func.value.attr == "linalg":
                    calls.append((node.func.attr, name, path.name))
                elif isinstance(node, ast.ImportFrom) and \
                        "linalg" in (node.module or ""):
                    imports.append((node.module, path.name))
                elif isinstance(node, ast.Import):
                    imports += [(a.name, path.name) for a in node.names
                                if "linalg" in a.name]
    return calls, imports


def test_the_scan_finds_the_allowed_calls():
    calls, _ = _linalg_calls()
    assert {(routine, fn) for routine, fn, _ in calls} == ALLOWED


def test_no_linalg_call_outside_the_allowlist():
    calls, imports = _linalg_calls()
    assert [c for c in calls if c[:2] not in ALLOWED] == []
    assert imports == []
