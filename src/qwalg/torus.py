"""Quantum tori: simplicity, central lattice, morphism calculus, and the
one-parameter isomorphism decision through skew congruence normal forms."""
from __future__ import annotations

from dataclasses import dataclass

from . import intlattice
from .presentation import Multiplicative, Presentation
from .scalars import Scalar, ScalarGroup


class TorusError(ValueError):
    pass


class QuantumTorus:
    """Laurent algebra on n generators with y_i y_j = lambda_{i,j} y_j y_i."""

    def __init__(self, group: ScalarGroup, lam: list[list[Scalar]]):
        n = len(lam)
        for i, row in enumerate(lam):
            if len(row) != n:
                raise TorusError("weight matrix must be square")
            for j, s in enumerate(row):
                if s.group != group:
                    raise TorusError("weight outside the declared group")
        for i in range(n):
            if not lam[i][i].is_one():
                raise TorusError("diagonal weights must be 1")
            for j in range(n):
                if not lam[i][j].mul(lam[j][i]).is_one():
                    raise TorusError("weight matrix is not multiplicatively antisymmetric")
        self.group = group
        self.lam = [list(row) for row in lam]
        self.n = n

    @staticmethod
    def uniparameter(group: ScalarGroup, name: str, exponents) -> "QuantumTorus":
        q = group.free_gen(name)
        n = len(exponents)
        lam = [[q.pow(exponents[i][j]) for j in range(n)] for i in range(n)]
        return QuantumTorus(group, lam)

    @staticmethod
    def from_presentation(p: Presentation) -> "QuantumTorus":
        lam = [[p.group.one() for _ in range(p.n)] for _ in range(p.n)]
        for i in range(p.n):
            for j in range(p.n):
                if i == j:
                    continue
                w = p.quantum_weight(i, j)
                if w is None:
                    raise TorusError("presentation has a non-quantum relation; "
                                     "not a torus")
                lam[i][j] = w
        return QuantumTorus(p.group, lam)

    def to_presentation(self, names=None) -> Presentation:
        names = tuple(names) if names else tuple(f"y{i+1}" for i in range(self.n))
        items = [(i, j, Multiplicative(self.lam[i][j]))
                 for i in range(self.n) for j in range(i + 1, self.n)]
        return Presentation.build(self.group, names, items)

    def __eq__(self, other):
        if not isinstance(other, QuantumTorus):
            return NotImplemented
        return self.group == other.group and self.lam == other.lam


def central_lattice(t: QuantumTorus) -> list[list[int]]:
    """Basis of {a in Z^n : prod_i lambda_{i,j}^{a_i} = 1 for all j}.

    The monomials with exponents in this lattice span the center of the
    torus; its rank is the transcendence degree of the center of the
    fraction field.
    """
    n = t.n
    m = t.group.rank
    e = t.group.torsion_order
    free_rows = []
    tor_rows = []
    for j in range(n):
        for c in range(m):
            free_rows.append([t.lam[i][j].free[c] for i in range(n)])
        tor_rows.append([t.lam[i][j].torsion for i in range(n)])
    return intlattice.kernel_with_torsion(free_rows, tor_rows if e > 1 else [],
                                          e, n)


def is_simple(t: QuantumTorus) -> bool:
    return not central_lattice(t)


@dataclass(frozen=True)
class TorusMorphism:
    """y_i maps to a scalar multiple of prod_k y'_k ^ h[k][i]; the scalar
    prefactors never enter the defining weight equations."""
    src: QuantumTorus
    dst: QuantumTorus
    h: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Violation:
    i: int
    j: int


def check_morphism(src: QuantumTorus, dst: QuantumTorus, h) -> TorusMorphism | Violation:
    """Verify lambda_{i,j} = prod_{k,t} lambda'_{k,t}^(h_{k,i} h_{t,j})."""
    n, np_ = src.n, dst.n
    if len(h) != np_ or any(len(row) != n for row in h):
        raise TorusError("matrix size mismatch")
    for i in range(n):
        for j in range(i + 1, n):
            acc = src.group.one()
            for k in range(np_):
                for t in range(np_):
                    exp = h[k][i] * h[t][j]
                    if exp:
                        acc = acc.mul(dst.lam[k][t].pow(exp))
            if acc != src.lam[i][j]:
                return Violation(i, j)
    return TorusMorphism(src, dst, tuple(tuple(r) for r in h))


def compose(f: TorusMorphism, g: TorusMorphism) -> TorusMorphism:
    """f after g (matrices multiply)."""
    if g.dst is not f.src and g.dst != f.src:
        raise TorusError("morphisms are not composable")
    h = intlattice.matmul(f.h, g.h)
    out = check_morphism(g.src, f.dst, h)
    if isinstance(out, Violation):
        raise AssertionError("composite of valid morphisms violated the equations")
    return out


def is_isomorphism(f: TorusMorphism) -> bool:
    return f.src.n == f.dst.n and abs(intlattice.det(f.h)) == 1


def uniparameter_exponents(t: QuantumTorus, name: str) -> list[list[int]] | None:
    """Antisymmetric S with lambda_{i,j} = q^s_{i,j} exactly, else None."""
    if name not in t.group.free_symbols:
        raise ValueError(f"{name!r} is not a free symbol of the scalar group")
    idx = t.group.free_symbols.index(name)
    s = [[0] * t.n for _ in range(t.n)]
    for i in range(t.n):
        for j in range(t.n):
            lam = t.lam[i][j]
            if lam.torsion != 0:
                return None
            if any(v for c, v in enumerate(lam.free) if c != idx):
                return None
            s[i][j] = lam.free[idx]
    return s


@dataclass(frozen=True)
class Iso:
    h: tuple[tuple[int, ...], ...]
    canonical: tuple[int, ...]


@dataclass(frozen=True)
class NotIso:
    canonical_1: tuple[int, ...]
    canonical_2: tuple[int, ...]


@dataclass(frozen=True)
class NotApplicable:
    reason: str


def uniparameter_iso_decide(t1: QuantumTorus, t2: QuantumTorus,
                            name: str) -> Iso | NotIso | NotApplicable:
    """Decide isomorphism of two tori whose weights are powers of one free q.

    The exponent matrices are congruent over GL_n(Z) exactly when their skew
    normal forms agree, and a congruence witness is an isomorphism matrix;
    the returned witness is re-verified through the weight equations both
    ways.
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
    # h = u2 * u1^{-1} satisfies s1 = h^T s2 h.
    h = intlattice.matmul(f2.transform, intlattice.matinv_unimodular(f1.transform))
    fwd = check_morphism(t1, t2, h)
    if isinstance(fwd, Violation):
        raise AssertionError("congruence witness failed the weight equations")
    back = check_morphism(t2, t1, intlattice.matinv_unimodular(h))
    if isinstance(back, Violation):
        raise AssertionError("inverse witness failed the weight equations")
    return Iso(tuple(tuple(r) for r in h), f1.divisors)
