"""One fixed-order elimination: ``chart.gauss_jordan``.

Every float inverse (``chart.inverse``) and the determinant side of the
``pfaffian`` check come from one Gauss-Jordan elimination with per-node
partial pivoting, in elementwise numpy over the node axis and no LAPACK.
It is exact where every step is (integer matrices whose inverses and
determinants are small dyadic numbers, against a rational cofactor
oracle), its determinant changes sign bit for bit under row swaps, each
node keeps the bits of its one-node run whatever batch it sits in, and a
2-D matrix with no node axis is one matrix.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ggred import chart as ch
from ggred import localize as lz
from ggred.errors import SingularBodyError

# each elimination step of these stays exactly representable
EXACT = [
    [[2, 1], [1, 1]],
    [[0, 1], [1, 0]],
    [[3, 1], [1, 3]],
    [[4, 2, 2], [2, 3, 1], [2, 1, 3]],
    [[0, 0, 2], [0, 4, 0], [1, 0, 0]],
    [[1, 1, 0], [0, 2, 2], [4, 0, 4]],
    [[2, 0, 0], [0, -2, 0], [0, 0, -8]],
    [[0, 2, 0, 0], [0, 0, 0, -4], [8, 0, 0, 0], [0, 0, 1, 0]],
]


def _sign(perm):
    return (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))


def _det(m):
    """The Leibniz sum, in rationals."""
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        term = Fraction(_sign(perm))
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _cofactor_inverse(m):
    """adj(m) / det(m), in rationals."""
    n = len(m)
    det = _det(m)
    minor = [[_det([[m[r][c] for c in range(n) if c != j]
                    for r in range(n) if r != i]) if n > 1 else Fraction(1)
              for j in range(n)] for i in range(n)]
    return [[(-1) ** (i + j) * minor[j][i] / det for j in range(n)]
            for i in range(n)], det


@pytest.mark.parametrize("m", EXACT, ids=lambda m: f"{len(m)}x{len(m)}")
def test_exact_on_integer_matrices(m):
    inv, det = _cofactor_inverse([[Fraction(v) for v in row] for row in m])
    got_inv, got_det = ch.gauss_jordan(np.array(m, dtype=float))
    assert got_inv.tolist() == [[float(v) for v in row] for row in inv]
    assert got_det == float(det)
    assert np.array_equal(ch.inverse(np.array(m, dtype=float),
                                     SingularBodyError, "m"), got_inv)


def test_determinant_sign_follows_the_row_swaps():
    a = np.random.default_rng(5).normal(size=(4, 4))
    inv, det = ch.gauss_jordan(a)
    perms = list(itertools.permutations(range(4)))
    inv_p, det_p = ch.gauss_jordan(np.stack([a[list(p)] for p in perms]))
    for k, perm in enumerate(perms):
        # the same pivot rows in the same order: the same |det| bits, and
        # the inverse of P a is a^-1 P^T, column for column
        assert det_p[k] == _sign(perm) * det
        assert np.array_equal(inv_p[k][:, np.argsort(perm)], inv)


def _pool(n, rng):
    """Matrices of size n: regular, ones that pivot on a later row, ties,
    and singular, infinite and NaN ones."""
    out = list(rng.normal(size=(6, n, n)))
    swapped = rng.normal(size=(n, n))
    swapped[0, 0] = 1e-3
    out += [swapped, np.eye(n), np.zeros((n, n)), np.ones((n, n)),
            rng.integers(-2, 3, size=(n, n)).astype(float)]
    for bad in (np.nan, np.inf):
        m = rng.normal(size=(n, n))
        m[rng.integers(n), rng.integers(n)] = bad
        out.append(m)
    return np.array(out)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_node_keeps_the_bits_of_its_one_node_run(n):
    rng = np.random.default_rng(100 + n)
    pool = _pool(n, rng)
    alone = [ch.gauss_jordan(m[None]) for m in pool]
    for size in (1, 2, 3, 7, len(pool), 40):
        pick = rng.integers(len(pool), size=size)
        inv, det = ch.gauss_jordan(pool[pick])
        for k, j in enumerate(pick):
            assert inv[k].tobytes() == alone[j][0][0].tobytes()
            assert det[k].tobytes() == alone[j][1][0].tobytes()


def test_a_matrix_with_no_node_axis_is_one_matrix():
    # AuxiliaryPolynomial.eliminate's float block body has no node axis
    m = np.array([[1.0, 0.5], [0.5, 1.0]])
    inv, det = ch.gauss_jordan(m)
    one_inv, one_det = ch.gauss_jordan(m[None])
    assert inv.shape == (2, 2) and np.shape(det) == ()
    assert np.array_equal(inv, one_inv[0]) and det == one_det[0]
    poly = lz.AuxiliaryPolynomial(2, ["x", "y"])
    poly.add_quad("x", "x", 0.5)
    poly.add_quad("x", "y", 0.5)
    poly.add_quad("y", "y", 0.5)
    poly.add_lin("x", 1.0)
    _, sol = poly.eliminate(["x", "y"])
    # v = -Q^-1 L with Q = m and L = (1, 0)
    assert [sol[v][0].body for v in "xy"] == (-inv[:, 0]).tolist()
