"""Quantum tori: simplicity, central lattice, morphism calculus, and the
one-parameter isomorphism decision through skew congruence normal forms.

Every computation reads the exponent matrices of the weights, one integer
matrix per coordinate of Z/e x Z^m (the torsion one mod e): the centre is an
integer kernel, and a morphism with matrix h is S = h^T S' h in each one."""
from __future__ import annotations

from typing import NamedTuple

from . import intlattice
from .presentation import Presentation
from .scalars import GroupMismatch, Scalar, ScalarGroup


class TorusError(ValueError):
    pass


def _congruent(a: int, b: int, mod: int) -> bool:
    """a = b in Z/mod, or in Z when mod is 0."""
    return (a - b) % mod == 0 if mod else a == b


class QuantumTorus:
    """Laurent algebra on n generators with y_i y_j = lambda_{i,j} y_j y_i.

    A torus is its exponent matrices: ``exponents`` holds the torsion
    exponents of lambda (in [0, e)), then one matrix per free symbol, and
    ``moduli`` the matching modulus (e, then 0 for exact).  The constructor
    is the one check of a matrix of scalars: row by row, the diagonal, then
    each pair (i, j) with j > i, as (j, i) with j < i was met on row j.
    ``lam`` is derived on first use."""

    def __init__(self, group: ScalarGroup, lam: list[list[Scalar]]):
        n = len(lam)
        for row in lam:
            if len(row) != n:
                raise TorusError("weight matrix must be square")
            if any(s.group != group for s in row):
                raise TorusError("weight outside the declared group")
        self.group, self.n, self._lam = group, n, [list(row) for row in lam]
        self.exponents = [[[s.torsion for s in row] for row in lam]] + [
            [[s.free[c] for s in row] for row in lam] for c in range(group.rank)]
        coords = list(zip(self.exponents, self.moduli))
        for i in range(n):
            if any(s[i][i] for s in self.exponents):
                raise TorusError("diagonal weights must be 1")
            if any(not _congruent(s[i][j], -s[j][i], mod)
                   for s, mod in coords for j in range(i + 1, n)):
                raise TorusError("weight matrix is not multiplicatively antisymmetric")

    @property
    def moduli(self) -> tuple[int, ...]:
        return (self.group.torsion_order,) + (0,) * self.group.rank

    @staticmethod
    def uniparameter(group: ScalarGroup, name: str, exponents) -> "QuantumTorus":
        return QuantumTorus(group, [[group.free_gen(name, k) for k in row]
                                    for row in exponents])

    @staticmethod
    def from_relations(group: ScalarGroup, n: int, weights) -> "QuantumTorus":
        """lambda_{a,b} of degree d (torsion in [0, e)) and lambda_{b,a} its
        inverse for each (a, b, d), d None for a non-quantum relation; each
        pair comes once and no generator with itself, as the parser checks."""
        t = QuantumTorus.__new__(QuantumTorus)
        t.group, t.n, t._lam = group, n, None
        moduli = t.moduli
        t.exponents = [[[0] * n for _ in range(n)] for _ in moduli]
        for a, b, d in weights:
            if d is None:
                raise TorusError("presentation has a non-quantum relation; "
                                 "not a torus")
            for s, k, mod in zip(t.exponents, d, moduli):
                s[a][b], s[b][a] = k, (-k % mod if mod else -k)
        return t

    @property
    def lam(self) -> list[list[Scalar]]:
        if self._lam is None:
            tor, *free = self.exponents
            self._lam = [[Scalar(self.group, tor[i][j], tuple(s[i][j] for s in free))
                          for j in range(self.n)] for i in range(self.n)]
        return self._lam

    def degrees(self) -> list[list[tuple]]:
        """The degree (torsion, *free) of each lambda_{i,j}, off the exponents."""
        return [list(zip(*rows)) for rows in zip(*self.exponents)]

    def to_presentation(self, names=None) -> Presentation:
        names = tuple(names) if names else tuple(f"y{i+1}" for i in range(self.n))
        deg = self.degrees()
        return Presentation.from_items(self.group, names, [
            (i, j, deg[i][j]) for i in range(self.n) for j in range(i + 1, self.n)])

    def __eq__(self, other):
        if not isinstance(other, QuantumTorus):
            return NotImplemented
        return self.group == other.group and self.exponents == other.exponents


def central_lattice(t: QuantumTorus) -> list[list[int]]:
    """Basis of {a in Z^n : prod_i lambda_{i,j}^{a_i} = 1 for all j}.

    The monomials with exponents in this lattice span the center of the
    torus; its rank is the transcendence degree of the center of the
    fraction field.  By antisymmetry the rows of the exponent matrices (their
    columns negated) give the equations.
    """
    tor, *free = t.exponents
    free_rows = [s[j] for j in range(t.n) for s in free]
    e = t.group.torsion_order
    return intlattice.kernel_with_torsion(free_rows, tor if e > 1 else [], e, t.n)


def is_simple(t: QuantumTorus) -> bool:
    return not central_lattice(t)


class TorusMorphism(NamedTuple):
    """y_i maps to a scalar multiple of prod_k y'_k ^ h[k][i]; the scalar
    prefactors never enter the defining weight equations."""
    src: QuantumTorus
    dst: QuantumTorus
    h: tuple[tuple[int, ...], ...]


class Violation(NamedTuple):
    i: int
    j: int


def check_morphism(src: QuantumTorus, dst: QuantumTorus, h) -> TorusMorphism | Violation:
    """Verify lambda_{i,j} = prod_{k,t} lambda'_{k,t}^(h_{k,i} h_{t,j}), that
    is S = h^T S' h for each pair of exponent matrices; else the first
    failing pair i < j.

    Both sides are antisymmetric, so only i < j is compared, and a zero S'
    (the torsion coordinate when e = 1) pulls back to zero with no product."""
    n, np_ = src.n, dst.n
    if len(h) != np_ or any(len(row) != n for row in h):
        raise TorusError("matrix size mismatch")
    if src.group != dst.group:
        raise GroupMismatch("scalars belong to different groups")
    zero = intlattice.upper(intlattice.zeros(n, n))
    coords = [(intlattice.congruence_upper(h, sd) if any(map(any, sd)) else zero, ss, mod)
              for sd, ss, mod in zip(dst.exponents, src.exponents, src.moduli)]
    for i in range(n):
        for j in range(i + 1, n):
            if any(not _congruent(p[i][j - i - 1], s[i][j], mod) for p, s, mod in coords):
                return Violation(i, j)
    return TorusMorphism(src, dst, tuple(tuple(r) for r in h))


def compose(f: TorusMorphism, g: TorusMorphism) -> TorusMorphism:
    """f after g (matrices multiply)."""
    if g.dst is not f.src and g.dst != f.src:
        raise TorusError("morphisms are not composable")
    h = intlattice.matmul(f.h, g.h)
    out = check_morphism(g.src, f.dst, h)
    if isinstance(out, Violation):  # nothing checks a TorusMorphism built by hand
        raise TorusError("composite violates the weight equations: a factor is not a morphism")
    return out


def is_isomorphism(f: TorusMorphism) -> bool:
    return f.src.n == f.dst.n and abs(intlattice.det(f.h)) == 1


def uniparameter_exponents(t: QuantumTorus, name: str) -> list[list[int]] | None:
    """Antisymmetric S with lambda_{i,j} = q^s_{i,j} exactly, else None."""
    if name not in t.group.free_symbols:
        raise ValueError(f"{name!r} is not a free symbol of the scalar group")
    idx = 1 + t.group.free_symbols.index(name)
    if any(any(map(any, s)) for k, s in enumerate(t.exponents) if k != idx):
        return None
    return [list(row) for row in t.exponents[idx]]


class Iso(NamedTuple):
    h: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]
    h_inv: tuple[tuple[int, ...], ...]  # the inverse matrix, checked by h * h_inv = I


class NotIso(NamedTuple):
    canonical_1: tuple[int, ...]
    canonical_2: tuple[int, ...]


class NotApplicable(NamedTuple):
    reason: str


def uniparameter_iso_decide(t1: QuantumTorus, t2: QuantumTorus,
                            name: str) -> Iso | NotIso | NotApplicable:
    """Decide isomorphism of two tori whose weights are powers of one free q.

    The exponent matrices are congruent over GL_n(Z) exactly when their skew
    normal forms agree, and a congruence witness is an isomorphism matrix.
    The witness h is re-verified through the weight equations, and h_inv by
    h * h_inv = I: this proves h unimodular, and with h^T S2 h = S1 it gives
    h_inv^T S1 h_inv = S2 in every coordinate, so h_inv is the inverse
    isomorphism with no second check.
    """
    s1 = uniparameter_exponents(t1, name)
    s2 = uniparameter_exponents(t2, name)
    if s1 is None or s2 is None:
        return NotApplicable("a torus is not uniparameter in the given symbol")
    f1 = intlattice.skew_normal_form(s1)
    f2 = intlattice.skew_normal_form(s2)
    if t1.n != t2.n or f1.divisors != f2.divisors:
        return NotIso(f1.divisors, f2.divisors)
    # With u1, u2 the transforms, u1^T s1 u1 = C = u2^T s2 u2, so
    # h = u2 * u1^{-1} satisfies s1 = h^T s2 h, and h^{-1} = u1 * u2^{-1}.
    fwd = check_morphism(t1, t2, intlattice.matmul(f2.transform, f1.inverse))
    if isinstance(fwd, Violation):
        raise AssertionError("congruence witness failed the weight equations")
    h_inv = intlattice.matmul(f1.transform, f2.inverse)
    if intlattice.matmul(fwd.h, h_inv) != intlattice.identity(t1.n):
        raise AssertionError("inverse witness is not the inverse of h")
    return Iso(fwd.h, f1.divisors, tuple(tuple(r) for r in h_inv))
