import itertools
import random
from fractions import Fraction

import pytest

from qwalg import intlattice as il

from support import full_congruence, lattice_member, random_antisymmetric, random_unimodular


def reference_hermite(a):
    """Reference: the row-style Hermite form with its transform, (H, U) with
    U*a = H and |det U| = 1, every row operation applied to U as well."""
    h = il.copy(a)
    r = len(h)
    c = len(h[0]) if h else 0
    u = il.identity(r)
    piv = 0
    for col in range(c):
        while True:
            nz = [i for i in range(piv, r) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(h[i][col]))
            if i0 != piv:
                h[piv], h[i0] = h[i0], h[piv]
                u[piv], u[i0] = u[i0], u[piv]
            p = h[piv][col]
            done = True
            for i in range(piv + 1, r):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[piv])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[piv])]
                if h[i][col] != 0:
                    done = False
            if done:
                break
        if piv < r and h[piv][col] != 0:
            if h[piv][col] < 0:
                h[piv] = [-x for x in h[piv]]
                u[piv] = [-x for x in u[piv]]
            p = h[piv][col]
            for i in range(piv):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[piv])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[piv])]
            piv += 1
            if piv == r:
                break
    return h, u


def test_smith_identity():
    d, u, v = il.smith_nf(il.identity(3))
    assert d == il.identity(3)
    assert il.matmul(il.matmul(u, il.identity(3)), v) == d


def test_smith_2_3():
    a = [[2, 0], [0, 3]]
    d, u, v = il.smith_nf(a)
    assert il.matmul(il.matmul(u, a), v) == d
    diag = [d[i][i] for i in range(2)]
    assert all(diag[i] >= 0 for i in range(2))
    assert diag[1] % diag[0] == 0
    # elementary divisors of diag(2,3) are 1 and 6
    assert diag == [1, 6]


def test_smith_random_verified():
    rng = random.Random(3)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        d, u, v = il.smith_nf(a)
        assert il.matmul(il.matmul(u, a), v) == d
        assert abs(il.det(u)) == 1 and abs(il.det(v)) == 1
        diag = [d[i][i] for i in range(min(r, c))]
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0


def test_hermite_zero():
    h, u = reference_hermite([[0, 0], [0, 0]])
    assert il.hermite_nf([[0, 0], [0, 0]]) == h == [[0, 0], [0, 0]]
    assert abs(il.det(u)) == 1
    assert il.hermite_nf([[0, 0, 0]]) == [[0, 0, 0]]
    assert il.hermite_nf([]) == []


def test_hermite_canonical():
    rng = random.Random(5)
    for _ in range(60):
        r, c = rng.randrange(1, 5), rng.randrange(1, 5)
        a = [[rng.randrange(-6, 7) for _ in range(c)] for _ in range(r)]
        h = il.hermite_nf(a)
        assert h == reference_hermite(a)[0]
        # row-space canonicity: shuffling rows gives the same form
        b = [row[:] for row in a]
        rng.shuffle(b)
        h2 = il.hermite_nf(b)
        assert [r for r in h if any(r)] == [r2 for r2 in h2 if any(r2)]


def test_hermite_matches_transform_reference():
    """The form built without a transform equals the reference's H exactly,
    zero rows and columns included, and the reference's U checks it."""
    rng = random.Random(29)
    for _ in range(300):
        r, c = rng.randrange(1, 7), rng.randrange(1, 7)
        a = [[rng.randrange(-9, 10) if rng.random() < 0.7 else 0 for _ in range(c)]
             for _ in range(r)]
        for k in rng.sample(range(r), rng.randrange(r)):
            a[k] = [0] * c
        for k in rng.sample(range(c), rng.randrange(c)):
            for row in a:
                row[k] = 0
        h, u = reference_hermite(a)
        assert il.hermite_nf(a) == h, a
        assert il.matmul(u, a) == h and abs(il.det(u)) == 1, a


def test_kernel_simple():
    assert il.kernel_with_torsion([[1, -1]], [], 1, 2) == [[1, 1]]
    assert il.kernel_with_torsion([], [[1]], 2, 1) == [[2]]
    assert il.kernel([[0, 0]]) == il.identity(2)
    assert il.kernel([[1, 2], [2, 4]]) == [[2, -1]]
    with pytest.raises(ValueError):
        il.kernel([])


def smith_kernel(a, ncols):
    """Reference: the last columns of V in a Smith form U*a*V = D, in Hermite form."""
    if not a:
        return il.identity(ncols)
    d, _, v = il.smith_nf(a)
    rk = sum(1 for i in range(min(len(d), ncols)) if d[i][i] != 0)
    h = il.hermite_nf([[v[i][j] for i in range(ncols)] for j in range(rk, ncols)])
    return [row for row in h if any(row)]


def smith_kernel_with_torsion(a, b, e, n):
    """Reference: one auxiliary variable per row of b scaled by e, the Smith
    kernel of the augmented matrix, projected to x and put in Hermite form."""
    rows = [list(r) + [0] * len(b) for r in a]
    rows += [list(r) + [e * (i == k) for i in range(len(b))] for k, r in enumerate(b)]
    proj = [row[:n] for row in smith_kernel(rows, n + len(b))]
    h = il.hermite_nf(proj)
    return [row for row in h if any(row)]


def smith_intersect(b1, b2, dim):
    """Reference: x*b1 = y*b2 through the Smith kernel of the stacked transpose."""
    if not b1 or not b2:
        return []
    stacked = [[r[j] for r in b1] + [-r[j] for r in b2] for j in range(dim)]
    vecs = [il.matmul([row[:len(b1)]], b1)[0] for row in smith_kernel(stacked, len(b1) + len(b2))]
    h = il.hermite_nf(vecs)
    return [row for row in h if any(row)]


def test_kernels_match_smith_reference():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randrange(0, 7)
        e = rng.choice([1, 2, 3, 4, 6, 12])
        a = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
        b = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(rng.randrange(0, 4))]
        assert il.kernel_with_torsion(a, b, e, n) == smith_kernel_with_torsion(a, b, e, n), (a, b, e)
        assert il.kernel(a, n) == smith_kernel(a, n), a
        dim = rng.randrange(1, 7)
        b1 = [[rng.randrange(-5, 6) for _ in range(dim)] for _ in range(rng.randrange(0, 4))]
        b2 = [[rng.randrange(-5, 6) for _ in range(dim)] for _ in range(rng.randrange(0, 4))]
        assert il.lattice_intersect(b1, b2, dim) == smith_intersect(b1, b2, dim), (b1, b2)


def test_kernel_with_torsion_brute():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 4)
        e = rng.choice([1, 2, 3, 4])
        a = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        b = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        basis = il.kernel_with_torsion(a, b, e, n)
        # brute force on a small box
        for alpha in itertools.product(range(-3, 4), repeat=n):
            in_set = all(sum(r[i] * alpha[i] for i in range(n)) == 0 for r in a) and \
                all(sum(r[i] * alpha[i] for i in range(n)) % e == 0 for r in b)
            assert lattice_member(basis, list(alpha)) == in_set


def test_lattice_intersect_examples():
    assert il.lattice_intersect(il.identity(2), [[0, 1]], 2) == [[0, 1]]
    got = il.lattice_intersect([[2, 0], [0, 1]], [[1, 0], [0, 3]], 2)
    assert got == [[2, 0], [0, 3]]


def test_lattice_intersect_membership():
    rng = random.Random(13)
    for _ in range(25):
        b1 = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(3)]
        b2 = [[rng.randrange(-3, 4) for _ in range(4)] for _ in range(3)]
        inter = il.lattice_intersect(b1, b2, 4)
        for v in inter:
            assert lattice_member(b1, v) and lattice_member(b2, v)
        for v in itertools.product(range(-2, 3), repeat=4):
            v = list(v)
            if lattice_member(b1, v) and lattice_member(b2, v):
                assert lattice_member(inter, v)


def test_skew_examples():
    f = il.skew_normal_form([[0, 2], [-2, 0]])
    assert f.divisors == (2,)
    assert [list(r) for r in f.transform] == il.identity(2)
    f2 = il.skew_normal_form([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]])
    assert f2.divisors == (1,)  # rank 2: one hyperbolic block, one zero line
    assert il.rank([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]) == 2


def test_skew_congruence_invariance():
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(1, 7)
        a = random_antisymmetric(n, rng)
        u = random_unimodular(n, rng)
        b = il.matmul(il.matmul(il.transpose(u), a), u)
        fa = il.skew_normal_form(a)
        fb = il.skew_normal_form(b)
        assert fa.divisors == fb.divisors
        assert il.rank(a) == 2 * len(fa.divisors)
        for i in range(len(fa.divisors) - 1):
            assert fa.divisors[i + 1] % fa.divisors[i] == 0


def test_skew_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        il.skew_normal_form([[0, 1], [1, 0]])


def test_matinv_unimodular():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randrange(1, 7)
        u = random_unimodular(n, rng, steps=rng.randrange(1, 16))
        w = il.matinv_unimodular(u)
        assert il.matmul(w, u) == il.identity(n)
        assert il.matmul(u, w) == il.identity(n)
    assert il.matinv_unimodular([]) == []


@pytest.mark.parametrize("a", [
    [[2]], [[1, 0], [0, 2]], [[1, 1], [-1, 1]],    # det 2
    [[0]], [[1, 2], [2, 4]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]],    # singular
    [[1, 0]], [[1], [0]],    # not square
])
def test_matinv_rejects_non_unimodular(a):
    with pytest.raises(ValueError):
        il.matinv_unimodular(a)


def hermite_route_kernel(a, b, e, ncols):
    """Reference: the kernel with torsion read off the Hermite form of the
    rows (a^T b^T | I) and (0 e*I | 0), the route ``kernel_with_torsion``
    took before its exact elimination."""
    rows = [[r[j] for r in a] + [r[j] for r in b] + [int(i == j) for i in range(ncols)]
            for j in range(ncols)]
    rows += [[0] * len(a) + [e * (i == k) for i in range(len(b))] + [0] * ncols
             for k in range(len(b))]
    width = len(a) + len(b)
    return [row[width:] for row in il.hermite_nf(rows) if any(row) and not any(row[:width])]


def fraction_rank(a) -> int:
    """Reference: the rank over Q by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in a]
    rk = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rk, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(rk + 1, len(m)):
            f = m[i][col] / m[rk][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


def with_determinant(n, d, rng):
    """A dense n x n matrix of determinant d: U * diag(1, ..., 1, d) * V."""
    diag = il.identity(n)
    diag[-1][-1] = d
    return il.matmul(il.matmul(random_unimodular(n, rng, 12), diag),
                     random_unimodular(n, rng, 12))


def test_exact_kernel_matches_hermite_route_and_fraction_rank():
    """Every kernel equals the Hermite-route reference, and its rank is n
    less the rank over Q: full-rank, rank-deficient (a repeated or combined
    row) and odd-n antisymmetric matrices, with and without torsion rows."""
    rng = random.Random(37)
    full = deficient = 0
    for _ in range(300):
        n = rng.randrange(0, 8)
        kind = rng.randrange(3)
        if kind == 0:
            a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(rng.randrange(n, n + 3))]
        elif kind == 1 and n:
            a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(rng.randrange(1, n + 2))]
            a.append([2 * x - y for x, y in zip(a[0], a[-1])])
        else:
            a = random_antisymmetric(2 * (n // 2) + 1, rng, bound=50)
            n = len(a)
        e = rng.choice([1, 2, 6])
        b = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        rk = fraction_rank(a)
        full += rk == n
        deficient += rk < n
        assert il.kernel_with_torsion(a, b, e, n) == hermite_route_kernel(a, b, e, n), (a, b, e)
        ker = il.kernel(a, n)
        assert ker == hermite_route_kernel(a, [], 1, n) and len(ker) == n - rk, a
    assert full > 50 and deficient > 50


def test_exact_kernel_matches_the_hermite_route_on_drawn_cases():
    """2400 seeded cases against the Hermite form of (a^T b^T | I): empty a,
    rank deficits from 0 to n, big entries, and torsion rows mod e."""
    rng = random.Random(2026)
    deficits, empty = set(), 0
    for case in range(2400):
        n = rng.randrange(1, 7)
        e = rng.choice([1, 2, 3, 4, 6, 12])
        rk = rng.randrange(0, n + 1) if case % 4 else 0
        bound = rng.choice([3, 50, 10 ** 6])
        base = [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(rk)]
        mix = [[rng.randrange(-3, 4) for _ in range(rk)] for _ in range(rng.randrange(0, n + 2))]
        a = base + [[sum(c * r[j] for c, r in zip(m, base)) for j in range(n)] for m in mix]
        rng.shuffle(a)
        b = [[rng.randrange(-13, 14) for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        deficits.add(n - fraction_rank(a))
        empty += not a
        assert il.kernel_with_torsion(a, b, e, n) == hermite_route_kernel(a, b, e, n), (a, b, e)
    assert {0, 1, 2, 3} <= deficits and empty > 50


PRIME = (1 << 61) - 1


@pytest.mark.parametrize("n", [1, 2, 4])
def test_determinant_equal_to_the_prime_takes_the_exact_route(n):
    """det a = 2^61 - 1, the prime of an earlier modular rank test that
    proved nothing here: a has full rank over Q, so its kernel is 0."""
    a = with_determinant(n, PRIME, random.Random(n))
    assert il.det(a) == PRIME and fraction_rank(a) == n
    assert il.kernel_with_torsion(a, [], 1, n) == hermite_route_kernel(a, [], 1, n) == []
    assert il.kernel_with_torsion(a, [[1] * n], 3, n) == []


def test_congruence_upper_is_the_triangle_of_the_full_product():
    """On antisymmetric s and h of any shape (zero rows and columns among
    them), the half product is the strict upper triangle of h^T s h, and
    that product is antisymmetric, so the triangle determines it."""
    rng = random.Random(53)
    for _ in range(150):
        r, c = rng.randrange(1, 8), rng.randrange(1, 8)
        s = random_antisymmetric(r, rng, bound=rng.choice([1, 5, 10 ** 6]))
        h = [[rng.randrange(-3, 4) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.2:
            h[rng.randrange(r)] = [0] * c
        full = full_congruence(h, s)
        assert il.congruence_upper(h, s) == il.upper(full)
        assert full == [[-x for x in row] for row in il.transpose(full)]


def test_skew_transform_times_inverse_is_identity():
    """The tracked inverse on 200 antisymmetric matrices up to 12 x 12,
    with zero blocks (whole zero rows and columns, and a zero leading
    block) among them; the transform also satisfies the full U^T A U = C,
    diagonal and lower triangle included, by the plain-int product."""
    rng = random.Random(41)
    for k in range(200):
        n = rng.randrange(1, 13)
        a = random_antisymmetric(n, rng, bound=rng.choice([1, 4, 30]))
        for z in rng.sample(range(n), rng.randrange(n // 2 + 1)):
            for i in range(n):
                a[i][z] = a[z][i] = 0
        if k % 10 == 0 and n > 2:
            a[0][1] = a[1][0] = 0
        f = il.skew_normal_form(a)
        u, w = [list(r) for r in f.transform], [list(r) for r in f.inverse]
        assert full_congruence(u, a) == f.canonical_matrix(), a
        assert il.matmul(u, w) == il.identity(n) == il.matmul(w, u), a
        assert w == il.matinv_unimodular(u), a


def test_refusals_of_malformed_matrices():
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        il.matmul([[1, 2]], [[1, 2]])
    with pytest.raises(ValueError, match="^determinant of a non-square matrix$"):
        il.det([[1, 2]])
    with pytest.raises(ValueError, match="^modulus must be >= 1$"):
        il.kernel_with_torsion([[1]], [], 0, 1)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        il.kernel_with_torsion([[1, 2]], [], 1, 3)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        il.lattice_intersect([[1, 2]], [[1]], 2)


def test_det_of_the_empty_matrix_is_one():
    assert il.det([]) == 1
