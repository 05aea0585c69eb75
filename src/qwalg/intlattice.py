"""Exact integer linear algebra on dense arbitrary-precision matrices.

Matrices are plain lists of lists of Python ints and are never mutated by
the public functions. The Smith and skew normal forms return transforms
that re-verify them by exact multiplication. The skew form checks its own,
U^T A U = C, on the strict upper triangle alone (``congruence_upper``: both
sides are antisymmetric), and also returns its transform's inverse, built
operation by operation; the Hermite form returns H alone. Lattice
intersections and unimodular inverses are read off one Hermite form of an
augmented matrix, and kernels off one fraction-free elimination.
"""
from __future__ import annotations

import operator
from typing import NamedTuple


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zeros(r: int, c: int) -> list[list[int]]:
    return [[0] * c for _ in range(r)]


def copy(a) -> list[list[int]]:
    return [list(row) for row in a]


def transpose(a) -> list[list[int]]:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def matmul(a, b) -> list[list[int]]:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def upper(a) -> list[list[int]]:
    """The strict upper triangle of a square matrix: row i holds a[i][j], j > i."""
    return [list(row[i + 1:]) for i, row in enumerate(a)]


def congruence_upper(h, s) -> list[list[int]]:
    """The strict upper triangle of h^T * s * h, as ``upper`` lays it out.

    s * h is formed once, then only the dot products of columns i < j.  For
    an antisymmetric s the product is antisymmetric, so the triangle
    determines it.
    """
    cols = transpose(h)
    sh = list(zip(*matmul(s, h)))
    return [[sum(map(operator.mul, cols[i], sh[j])) for j in range(i + 1, len(cols))]
            for i in range(len(cols))]


def det(a) -> int:
    """Fraction-free Bareiss determinant."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    m = copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def hermite_nf(a) -> list[list[int]]:
    """Row-style Hermite normal form H of a: H = U*a for some unimodular U.

    H is in echelon form with positive pivots and the entries above each
    pivot reduced into [0, pivot); this form is the canonical representative
    of the row lattice.  U is not built (see ``matinv_unimodular``).
    """
    h = copy(a)
    r = len(h)
    c = len(h[0]) if h else 0
    piv = 0
    for col in range(c):
        # Gcd-descent on the entries of this column at rows >= piv.
        while True:
            nz = [i for i in range(piv, r) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][col]))
            if i0 != piv:
                h[piv], h[i0] = h[i0], h[piv]
            p = h[piv][col]
            done = True
            for i in range(piv + 1, r):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[piv])]
                if h[i][col] != 0:
                    done = False
            if done:
                break
        if piv < r and h[piv][col] != 0:
            if h[piv][col] < 0:
                h[piv] = [-x for x in h[piv]]
            p = h[piv][col]
            for i in range(piv):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[piv])]
            piv += 1
            if piv == r:
                break
    return h


def smith_nf(a) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns (D, U, V) with U*a*V = D and d_i | d_{i+1}."""
    d = copy(a)
    r = len(d)
    c = len(d[0]) if d else 0
    u = identity(r)
    v = identity(c)

    def row_op(i, j, q):  # row_i -= q*row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(r, c):
        # Locate the smallest nonzero entry of the active block.
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        if i0 != t:
            d[t], d[i0] = d[i0], d[t]
            u[t], u[i0] = u[i0], u[t]
        if j0 != t:
            for row in d:
                row[t], row[j0] = row[j0], row[t]
            for row in v:
                row[t], row[j0] = row[j0], row[t]
        p = d[t][t]
        dirty = False
        for i in range(t + 1, r):
            q = d[i][t] // p
            if q:
                row_op(i, t, q)
            if d[i][t] != 0:
                dirty = True
        for j in range(t + 1, c):
            q = d[t][j] // p
            if q:
                col_op(j, t, q)
            if d[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # Pivot must divide everything that remains.
        offender = None
        for i in range(t + 1, r):
            for j in range(t + 1, c):
                if d[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_op(t, offender, -1)  # adds the offending row to row t
            continue
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return d, u, v


def rank(a) -> int:
    return sum(1 for row in hermite_nf(a) if any(row))


def _null_block(rows, width: int) -> list[list[int]]:
    """Basis of {x : (0 | x) in the row lattice of rows}, the 0 having width entries.

    The rows of a row-style Hermite form whose first width entries vanish
    come last and span exactly that sublattice; their tails are already its
    Hermite basis.
    """
    return [row[width:] for row in hermite_nf(rows) if any(row) and not any(row[:width])]


def kernel(a, ncols: int | None = None) -> list[list[int]]:
    """Basis (as rows) of the right kernel {x : a*x = 0} over Z."""
    if not a and ncols is None:
        raise ValueError("ncols required for an empty matrix")
    return kernel_with_torsion(a, [], 1, len(a[0]) if a else ncols)


def kernel_with_torsion(a, b, e: int, ncols: int) -> list[list[int]]:
    """Hermite basis of {x in Z^ncols : a*x = 0 over Z and b*x = 0 mod e}.

    A Bareiss elimination of the rows of a, row by row until full rank,
    ends on the minor D; each free column f gives the integral kernel vector
    k_f with D at f, 0 at the other free columns (back substitution, each
    division exact).  An integer x of ker_Q(a) is z*K/D, z its free part,
    with z*K = 0 mod D at the pivots and z*K*b^T = 0 mod eD: W*z = 0 mod
    N = e|D|, W the Hermite form of those rows (scaled to mod N) and N*I.
    """
    if e < 1:
        raise ValueError("modulus must be >= 1")
    for row in list(a) + list(b):
        if len(row) != ncols:
            raise ValueError("dimension mismatch")
    pivots, d = [], 1
    for v in a:
        prev = 1
        for c, r in pivots:
            p, f = r[c], v[c]
            v, prev = [(x * p - f * y) // prev for x, y in zip(v, r)], p
        c = next((j for j, x in enumerate(v) if x), None)
        if c is not None:
            pivots.append((c, v))
            d = v[c]
            if len(pivots) == ncols:
                return []
    kern = []
    for f in sorted(set(range(ncols)).difference(c for c, _ in pivots)):
        x = [0] * ncols
        x[f] = d
        for c, r in reversed(pivots):
            x[c] = -sum(map(operator.mul, r, x)) // r[c]
        kern.append(x)
    m, n = len(kern), e * abs(d)
    scaled = [[n * x for x in row] for row in identity(m)]
    w = hermite_nf([[e * k[c] for k in kern] for c, _ in pivots]
                   + [[sum(map(operator.mul, t, k)) for k in kern] for t in b] + scaled)
    z = _null_block([list(col) + row for col, row in zip(zip(*w[:m]), identity(m))]
                    + [row + [0] * m for row in scaled], m)
    return hermite_nf([[sum(map(operator.mul, zr, col)) // d for col in zip(*kern)]
                       for zr in z])


def lattice_intersect(basis1, basis2, dim: int) -> list[list[int]]:
    """Basis of the intersection of the row lattices spanned by basis1, basis2.

    Zassenhaus: the null block of the rows (b1 | b1) and (b2 | 0).
    """
    for row in list(basis1) + list(basis2):
        if len(row) != dim:
            raise ValueError("dimension mismatch")
    return _null_block([list(r) * 2 for r in basis1] + [list(r) + [0] * dim for r in basis2],
                       dim)


class SkewNormalForm(NamedTuple):
    """Congruence canonical form of an antisymmetric integer matrix.

    transform U satisfies U^T * A * U = C where C is block diagonal with
    hyperbolic blocks [[0, d_i], [-d_i, 0]] followed by zeros, and the
    divisors satisfy d_i | d_{i+1}; inverse is U^-1.  ``skew_normal_form``
    checks U^T * A * U = C entry by entry above the diagonal, which for the
    antisymmetric A and C is the whole equation; U * U^-1 = I is not
    re-multiplied (each operation updates both).
    """

    size: int
    divisors: tuple[int, ...]
    transform: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[int, ...], ...]

    def canonical_matrix(self) -> list[list[int]]:
        c = zeros(self.size, self.size)
        for k, d in enumerate(self.divisors):
            c[2 * k][2 * k + 1] = d
            c[2 * k + 1][2 * k] = -d
        return c


def is_antisymmetric(a) -> bool:
    n = len(a)
    return all(len(row) == n for row in a) and \
        all(a[i][j] == -a[j][i] for i in range(n) for j in range(i, n))


def skew_normal_form(a) -> SkewNormalForm:
    """Reduce an antisymmetric matrix to its congruence canonical form.

    Simultaneous row/column operations (so the result is U^T A U) run a
    gcd descent on the active block, isolate one hyperbolic block at a
    time, and force the pivot to divide the remainder before moving on,
    which yields the divisor chain directly.  Each operation multiplies U
    on the right by an elementary matrix E, and U^-1 on the left by E^-1,
    so U is unimodular by construction and its inverse needs no Hermite
    form of (U | I).
    """
    if not is_antisymmetric(a):
        raise ValueError("matrix is not antisymmetric")
    n = len(a)
    m = copy(a)
    u = identity(n)
    w = identity(n)  # U^-1

    def col_add(j, k, q):  # col_j += q*col_k together with row_j += q*row_k
        for i in range(n):
            m[i][j] += q * m[i][k]
        for i in range(n):
            m[j][i] += q * m[k][i]
        for i in range(n):
            u[i][j] += q * u[i][k]
        w[k] = [x - q * y for x, y in zip(w[k], w[j])]

    def swap(j, k):
        if j == k:
            return
        for row in m:
            row[j], row[k] = row[k], row[j]
        m[j], m[k] = m[k], m[j]
        for row in u:
            row[j], row[k] = row[k], row[j]
        w[j], w[k] = w[k], w[j]

    def negate(j):
        for i in range(n):
            m[i][j] = -m[i][j]
        for i in range(n):
            m[j][i] = -m[j][i]
        for i in range(n):
            u[i][j] = -u[i][j]
        w[j] = [-x for x in w[j]]

    t = 0
    guard = 0
    while t + 1 < n:
        guard += 1
        if guard > 100000:
            raise RuntimeError("skew normal form failed to converge")
        best = None
        for i in range(t, n):
            for j in range(i + 1, n):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best  # i0 < j0 and j0 >= t+1, so these swaps land the pivot at (t, t+1)
        swap(t, i0)
        swap(t + 1, j0)
        if m[t][t + 1] < 0:
            negate(t + 1)
        p = m[t][t + 1]
        dirty = False
        for j in range(t + 2, n):
            q = m[t][j] // p
            if q:
                col_add(j, t + 1, -q)
            if m[t][j] != 0:
                dirty = True
        for j in range(t + 2, n):
            q = m[t + 1][j] // p
            if q:
                col_add(j, t, q)
            if m[t + 1][j] != 0:
                dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 2, n):
            for j in range(i + 1, n):
                if m[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            col_add(t, offender, 1)
            continue
        t += 2
    divisors = []
    k = 0
    while 2 * k + 1 < n and m[2 * k][2 * k + 1] != 0:
        divisors.append(m[2 * k][2 * k + 1])
        k += 1
    for i in range(len(divisors) - 1):
        if divisors[i + 1] % divisors[i] != 0:
            raise AssertionError("divisor chain violated")
    snf = SkewNormalForm(n, tuple(divisors), tuple(tuple(r) for r in u),
                         tuple(tuple(r) for r in w))
    if congruence_upper(u, a) != upper(snf.canonical_matrix()):
        raise AssertionError("transform re-multiplication failed")
    return snf


def matinv_unimodular(a) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix: the Hermite form of
    (a | I) is (U*a | U), whose left block is I exactly when a is unimodular,
    and then U = a^-1."""
    n = len(a)
    h = hermite_nf([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)])
    if [row[:-n] for row in h] != identity(n):
        raise ValueError("matrix is not unimodular")
    return [row[-n:] for row in h]
