"""Pairwise-relation presentations of polynomial algebras.

A presentation is N generators plus one relation per unordered pair, of one
of three kinds: a weighted commutator ``x y - y x = p`` (integer p), a
scalar twist ``x y = s * y x`` (s a declared scalar, never 1 after
normalization), or the derivation-counting relation ``[w, y] = y``.  Absent
pairs commute.  Relations are stored for i < j only, with the weight
adjusted when the input came in the opposite orientation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .rewrite import Element, Rule, ReductionSystem
from .cyclo import Coeff, CoeffRing
from .scalars import Scalar, ScalarGroup


class PresentationError(ValueError):
    pass


class EulerianNotSupported(PresentationError):
    """Operation applies only to quantum/Weyl presentations."""


@dataclass(frozen=True)
class Additive:
    weight: int


@dataclass(frozen=True)
class Multiplicative:
    weight: Scalar


@dataclass(frozen=True)
class Eulerian:
    w_index: int  # generator index of the counting (w) side

Relation = Additive | Multiplicative | Eulerian


class Presentation:
    """Immutable presentation; relations normalized and keyed by i < j."""

    def __init__(self, group: ScalarGroup, gens: tuple[str, ...], rels: dict):
        self.group = group
        self.gens = tuple(gens)
        self.rels = dict(rels)

    @staticmethod
    def build(group: ScalarGroup, gens, rel_items) -> "Presentation":
        """Normalizing constructor.

        ``rel_items`` is a list of (a, b, relation) read in the (a, b)
        orientation: Additive(p) means g_a g_b - g_b g_a = p, Multiplicative(s)
        means g_a g_b = s g_b g_a, Eulerian means [g_a, g_b] = g_b.
        """
        gens = tuple(gens)
        if len(set(gens)) != len(gens):
            raise PresentationError("duplicate generator names")
        rels: dict = {}
        for a, b, rel in rel_items:
            if a == b:
                raise PresentationError(f"self-relation on generator {gens[a]!r}")
            i, j = min(a, b), max(a, b)
            if (i, j) in rels:
                raise PresentationError(f"duplicate relation for pair "
                                        f"({gens[i]}, {gens[j]})")
            if isinstance(rel, Additive):
                stored = Additive(rel.weight if a == i else -rel.weight)
                if stored.weight == 0:
                    continue
            elif isinstance(rel, Multiplicative):
                if rel.weight.group != group:
                    raise PresentationError("weight scalar outside the declared group")
                w = rel.weight if a == i else rel.weight.inv()
                if w.is_one():
                    continue
                stored = Multiplicative(w)
            elif isinstance(rel, Eulerian):
                stored = Eulerian(a)
            else:
                raise PresentationError(f"unknown relation kind {rel!r}")
            rels[(i, j)] = stored
        return Presentation(group, gens, rels)

    # -- accessors -------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.gens)

    def index(self, name: str) -> int:
        return self.gens.index(name)

    def rel(self, a: int, b: int) -> Relation:
        """Relation read in the (a, b) orientation; commuting pairs give Additive(0)."""
        if a == b:
            raise PresentationError("no self-relations")
        i, j = min(a, b), max(a, b)
        stored = self.rels.get((i, j))
        if stored is None:
            return Additive(0)
        if isinstance(stored, Eulerian) or a == i:
            return stored
        if isinstance(stored, Additive):
            return Additive(-stored.weight)
        return Multiplicative(stored.weight.inv())

    def quantum_weight(self, a: int, b: int) -> Scalar | None:
        """Scalar s with g_a g_b = s g_b g_a, or None for a genuine Weyl/Eulerian pair."""
        r = self.rel(a, b)
        if isinstance(r, Multiplicative):
            return r.weight
        if isinstance(r, Additive) and r.weight == 0:
            return self.group.one()
        return None

    def additive_weight(self, a: int, b: int) -> int | None:
        r = self.rel(a, b)
        return r.weight if isinstance(r, Additive) else None

    def has_eulerian(self) -> bool:
        return any(isinstance(r, Eulerian) for r in self.rels.values())

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.group, self.gens, self.rels) == (other.group, other.gens, other.rels)

    def __repr__(self):
        return f"Presentation(gens={self.gens!r}, rels={self.rels!r})"


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    witness: tuple | None = None  # (i, j, k, rel_ik, rel_jk)


def check_admissible(p: Presentation) -> AdmissibilityReport:
    """Triangle test: every pair carrying a nonzero Weyl weight forces each
    third generator to relate to both endpoints by weights multiplying to 1
    (or by Weyl weights on both sides)."""
    if p.has_eulerian():
        raise EulerianNotSupported("admissibility is defined for quantum/Weyl "
                                   "presentations only")
    n = p.n
    for (i, j), rel in sorted(p.rels.items()):
        if not isinstance(rel, Additive) or rel.weight == 0:
            continue
        for k in range(n):
            if k in (i, j):
                continue
            rik, rjk = p.rel(i, k), p.rel(j, k)
            if isinstance(rik, Additive) and isinstance(rjk, Additive):
                continue  # both Weyl weighted (0 allowed): always fine
            wik = rik.weight if isinstance(rik, Multiplicative) else None
            wjk = rjk.weight if isinstance(rjk, Multiplicative) else None
            if wik is not None and wjk is not None and wik.mul(wjk).is_one():
                continue
            return AdmissibilityReport(False, (i, j, k, rik, rjk))
    return AdmissibilityReport(True)


def weyl_matrix(p: Presentation) -> list[list[int]]:
    """Antisymmetric integer matrix of the Weyl weights."""
    if p.has_eulerian():
        raise EulerianNotSupported("the Weyl matrix is defined for quantum/Weyl "
                                   "presentations only")
    n = p.n
    m = [[0] * n for _ in range(n)]
    for (i, j), rel in p.rels.items():
        if isinstance(rel, Additive):
            m[i][j] = rel.weight
            m[j][i] = -rel.weight
    return m


def subpresentation(p: Presentation, names) -> Presentation:
    indices = [p.index(x) if isinstance(x, str) else x for x in names]
    if not indices:
        raise PresentationError("empty generator subset")
    items = []
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            rel = p.rel(indices[a], indices[b])
            if isinstance(rel, Eulerian):
                if rel.w_index == indices[a]:
                    items.append((a, b, Eulerian(a)))
                else:
                    items.append((b, a, Eulerian(b)))
            else:
                items.append((a, b, rel))
    return Presentation.build(p.group, tuple(p.gens[i] for i in indices), items)


# ---------------------------------------------------------------------------
# Generator-change operations (graph reduction steps and certificate replay).


@dataclass(frozen=True)
class Scale:
    """g_index <- factor * g_index (nonzero rational factor)."""
    index: int
    factor: Fraction


@dataclass(frozen=True)
class AddMultiple:
    """g_index <- g_index + coeff * g_other (integer coeff)."""
    index: int
    other: int
    coeff: int


@dataclass(frozen=True)
class Permute:
    """New generator p is old generator order[p]."""
    order: tuple[int, ...]

Op = Scale | AddMultiple | Permute


class OpError(PresentationError):
    """Generator-change operation does not preserve the presentation shape."""


def apply_op(p: Presentation, op: Op) -> Presentation:
    if p.has_eulerian():
        raise EulerianNotSupported("generator changes operate on quantum/Weyl "
                                   "presentations only")
    n = p.n
    if isinstance(op, Permute):
        if sorted(op.order) != list(range(n)):
            raise OpError("permutation is not a bijection")
        inv = [0] * n
        for new, old in enumerate(op.order):
            inv[old] = new
        items = []
        for (i, j), rel in p.rels.items():
            items.append((inv[i], inv[j], rel))
        return Presentation.build(p.group, tuple(p.gens[o] for o in op.order), items)

    if isinstance(op, Scale):
        c = Fraction(op.factor)
        if c == 0:
            raise OpError("zero scale factor")
        items = []
        for (i, j), rel in p.rels.items():
            if isinstance(rel, Additive) and op.index in (i, j):
                w = c * rel.weight
                if w.denominator != 1:
                    raise OpError("scaling would produce a non-integer Weyl weight")
                rel = Additive(int(w))
            items.append((i, j, rel))
        return Presentation.build(p.group, p.gens, items)

    if isinstance(op, AddMultiple):
        i, j, c = op.index, op.other, op.coeff
        if i == j:
            raise OpError("cannot add a generator to itself")
        if c == 0:
            return p
        if p.additive_weight(i, j) is None:
            raise OpError("combined generators must form a Weyl (or commuting) pair")
        items = []
        for t in range(n):
            if t in (i, j):
                continue
            rit, rjt = p.rel(i, t), p.rel(j, t)
            if isinstance(rit, Additive) and isinstance(rjt, Additive):
                new = Additive(rit.weight + c * rjt.weight)
            elif isinstance(rit, Multiplicative) and isinstance(rjt, Multiplicative) \
                    and rit.weight == rjt.weight:
                new = rit
            else:
                raise OpError(f"generator change mixes incompatible relations "
                              f"at third generator {p.gens[t]!r}")
            items.append((i, t, new))
        # Relations not involving i are untouched; the (i, j) weight is unchanged.
        items.append((i, j, p.rel(i, j)))
        for (a, b), rel in p.rels.items():
            if i not in (a, b):
                items.append((a, b, rel))
        return Presentation.build(p.group, p.gens, items)

    raise OpError(f"unknown operation {op!r}")


def apply_certificate(p: Presentation, ops) -> Presentation:
    for op in ops:
        p = apply_op(p, op)
    return p


# ---------------------------------------------------------------------------
# Reduction systems from presentations.


def system_from_presentation(p: Presentation) -> ReductionSystem:
    """One quadratic rule per generator pair, in declaration order."""
    ring = CoeffRing(p.group)
    n = p.n
    relations = []
    for j in range(n):
        for i in range(j):
            rel = p.rel(i, j)
            if isinstance(rel, Additive):
                # g_i g_j - g_j g_i = p  =>  g_j g_i -> g_i g_j - p
                rhs = Element(ring, {(i, j): Coeff.one(ring)})
                if rel.weight:
                    rhs = rhs.add(Element(ring, {(): Coeff.from_rational(ring, -rel.weight)}))
            elif isinstance(rel, Multiplicative):
                rhs = Element(ring, {(i, j): Coeff.from_scalar(ring, rel.weight.inv())})
            else:
                one = Coeff.one(ring)
                if rel.w_index == j:
                    # [g_j, g_i] = g_i  =>  g_j g_i -> g_i g_j + g_i
                    rhs = Element(ring, {(i, j): one, (i,): one})
                else:
                    # [g_i, g_j] = g_j  =>  g_j g_i -> g_i g_j - g_j
                    rhs = Element(ring, {(i, j): one, (j,): Coeff.from_rational(ring, -1)})
            relations.append(((j, i), rhs))
    rules = [Rule(lhs, rhs) for lhs, rhs in relations]
    return ReductionSystem(p.group, p.gens, rules)


def certified_system(p: Presentation) -> ReductionSystem:
    from .rewrite import Failing
    s = system_from_presentation(p)
    verdict = s.check_confluence()
    if isinstance(verdict, Failing):
        raise PresentationError(f"presentation has no ordered-monomial basis; "
                                f"ambiguity at word {verdict.word}")
    return s
