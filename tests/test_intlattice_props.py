"""Differential checks of the integer normal forms against sympy.

On random small integer matrices: the Smith diagonal equals sympy's, and the
row lattice of the Hermite form equals the column lattice of sympy's Hermite
form of the transpose (each basis lies in the other's lattice). The kernel
is killed by the matrix, has the rank sympy predicts and is saturated.
"""
import random

import pytest
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from qwalg import intlattice as il
from support import lattice_member


def _matrices(seed: int, count: int = 80):
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        yield [[rng.randrange(-9, 10) if rng.random() < 0.8 else 0 for _ in range(c)]
               for _ in range(r)]


@pytest.mark.parametrize("seed", range(3))
def test_smith_diagonal_matches_sympy(seed):
    for a in _matrices(seed):
        d, _, _ = il.smith_nf(a)
        k = min(len(a), len(a[0]))
        ref = smith_normal_form(Matrix(a), domain=ZZ)
        assert [d[i][i] for i in range(k)] == [int(ref[i, i]) for i in range(k)], a


@pytest.mark.parametrize("seed", range(3))
def test_hermite_row_lattice_matches_sympy(seed):
    for a in _matrices(seed + 10):
        rows = [r for r in il.hermite_nf(a) if any(r)]
        ref = hermite_normal_form(Matrix(a).T)
        cols = [[int(ref[i, j]) for i in range(ref.rows)] for j in range(ref.cols)]
        assert len(rows) == len(cols) == il.rank(a), a
        assert all(lattice_member(rows, v) for v in cols), a
        assert all(lattice_member(cols, v) for v in rows), a


@pytest.mark.parametrize("seed", range(3))
def test_kernel_matches_sympy(seed):
    for a in _matrices(seed + 20):
        ker = il.kernel(a)
        assert all(not any(col) for col in il.matmul(a, il.transpose(ker))), a
        assert len(ker) == len(a[0]) - Matrix(a).rank(), a
        if ker:
            snf = smith_normal_form(Matrix(ker), domain=ZZ)
            assert [abs(int(snf[i, i])) for i in range(len(ker))] == [1] * len(ker), a
