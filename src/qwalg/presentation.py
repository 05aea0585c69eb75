"""Pairwise-relation presentations of polynomial algebras.

A presentation is N generators plus one relation per unordered pair, of one
of three kinds: a weighted commutator ``x y - y x = p`` (integer p), a
scalar twist ``x y = s * y x`` (s a declared scalar, never 1 after
normalization), or the derivation-counting relation ``[w, y] = y``.  Absent
pairs commute.  Relations are stored for i < j only, with the weight
adjusted when the input came in the opposite orientation.

``exchanged`` is the one place the three kinds are read as algebra: it gives
what g_j g_i equals under the relation of a pair i < j, and
``verify_homomorphism`` uses it to check a ``GeneratorMap`` relation by
relation.  ``twist_degree`` is the one place a relation is read as the
degree of a scalar twist: the reduction system of a presentation states
the rule of a twisted or commuting pair by it (and takes ``exchanged`` as
the rule of any other pair), and ``verify_homomorphism`` settles by it a
relation whose images are single words.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rewrite import Element, Failing, NotCertifiedError, ReductionSystem, Rule
from .cyclo import Coeff, CoeffRing
from .scalars import Frozen, Scalar, ScalarGroup


class PresentationError(ValueError):
    pass


class EulerianNotSupported(PresentationError):
    """Operation applies only to quantum/Weyl presentations."""


class Additive(Frozen):
    """x y - y x = weight, an integer."""

    __slots__ = ("weight",)

    def __init__(self, weight: int):
        object.__setattr__(self, "weight", weight)


class Multiplicative(Frozen):
    """x y = weight * y x, a declared scalar."""

    __slots__ = ("weight",)

    def __init__(self, weight: Scalar):
        object.__setattr__(self, "weight", weight)


class Eulerian(Frozen):
    """[w, y] = y, with w the generator of index ``w_index``."""

    __slots__ = ("w_index",)

    def __init__(self, w_index: int):
        object.__setattr__(self, "w_index", w_index)

Relation = Additive | Multiplicative | Eulerian


def normalized_relation(a: int, b: int, rel: Relation) -> Relation | None:
    """rel, read in the (a, b) orientation, as stored for the pair i < j;
    None when the pair commutes (weight 0 or 1)."""
    if isinstance(rel, Additive):
        w = rel.weight if a < b else -rel.weight
        return Additive(w) if w else None
    if isinstance(rel, Multiplicative):
        w = rel.weight if a < b else rel.weight.inv()
        return None if w.is_one() else Multiplicative(w)
    return rel


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
            if isinstance(rel, Multiplicative):
                if rel.weight.group != group:
                    raise PresentationError("weight scalar outside the declared group")
            elif isinstance(rel, Eulerian):
                if rel.w_index != a:
                    raise PresentationError(
                        f"Eulerian item ({gens[a]}, {gens[b]}) must count with "
                        f"its first generator, not index {rel.w_index}")
            elif not isinstance(rel, Additive):
                raise PresentationError(f"unknown relation kind {rel!r}")
            stored = normalized_relation(a, b, rel)
            if stored is not None:
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


class AdmissibilityReport(NamedTuple):
    admissible: bool
    witness: tuple | None = None  # (i, j, k, rel_ik, rel_jk)

    def triple(self, gens) -> str:
        """The violating triple by generator names, as (a,b,c)."""
        i, j, k = self.witness[:3]
        return f"({gens[i]},{gens[j]},{gens[k]})"


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


class Scale(NamedTuple):
    """g_index <- factor * g_index (nonzero rational factor)."""
    index: int
    factor: Fraction


class AddMultiple(NamedTuple):
    """g_index <- g_index + coeff * g_other (integer coeff)."""
    index: int
    other: int
    coeff: int


class Permute(NamedTuple):
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


def exchanged(rel: Relation, i: int, gi: Element, gj: Element) -> Element:
    """What g_j g_i equals under ``rel``, the stored relation of a pair i < j,
    with gi and gj standing in for g_i and g_j.

    This is the one place the relation kinds are read as algebra: the
    reduction rule of the pair rewrites g_j g_i to it, and a generator map
    is checked by reducing image(g_j) image(g_i) minus it to zero.
    """
    ij = gi.concat(gj)
    if isinstance(rel, Additive):  # g_i g_j - g_j g_i = p
        if not rel.weight:
            return ij
        return ij.add(Element.from_word(ij.ring, (), Coeff.from_rational(ij.ring, -rel.weight)))
    if isinstance(rel, Multiplicative):  # g_i g_j = s g_j g_i
        return ij.scale(Coeff.of_degree(ij.ring, rel.weight.inv().degree()))
    if rel.w_index == i:  # [g_i, g_j] = g_j
        return ij.sub(gj)
    return ij.add(gi)  # [g_j, g_i] = g_i


def twist_degree(rel: Relation, group: ScalarGroup) -> tuple | None:
    """The degree d of mu with g_i g_j = mu g_j g_i under ``rel``, the
    stored relation of a pair i < j, for mu in ``group``, or None: a scalar
    twist has its weight's degree, and a commuting pair (Additive(0)) 0."""
    if isinstance(rel, Multiplicative) and rel.weight.group == group:
        return rel.weight.degree()
    if isinstance(rel, Additive) and not rel.weight:
        return (0,) * (1 + group.rank)
    return None


def system_from_presentation(p: Presentation) -> ReductionSystem:
    """One quadratic rule g_j g_i -> exchanged(...) per pair i < j, in
    declaration order; a twist pair states its rule by the degree of the
    scalar mu^-1 in g_j g_i = mu^-1 g_i g_j (``twist_degree``)."""
    ring = CoeffRing(p.group)
    letters = [Element.from_word(ring, (i,)) for i in range(p.n)]
    rules = [Rule((j, i), exchanged(p.rel(i, j), i, letters[i], letters[j]) if d is None
                  else p.group.inverse_degree(d))
             for j in range(p.n) for i in range(j) for d in [twist_degree(p.rel(i, j), p.group)]]
    return ReductionSystem(p.group, p.gens, rules)


def certified_system(p: Presentation) -> ReductionSystem:
    s = system_from_presentation(p)
    verdict = s.check_confluence()
    if isinstance(verdict, Failing):
        raise PresentationError(f"presentation has no ordered-monomial basis; "
                                f"ambiguity at word {s.format_word(verdict.word)}")
    return s


# ---------------------------------------------------------------------------
# Generator maps, verified relation by relation.


class VerificationError(RuntimeError):
    """An engine check that the theory guarantees has failed; a bug, not data."""


class GeneratorMap(NamedTuple):
    """Images of the source generators inside a certified target system."""
    source: Presentation
    target: ReductionSystem
    images: dict[str, Element]


class Verified(NamedTuple):
    relations_checked: int


class FailingRelation(NamedTuple):
    pair: tuple[str, str]
    defect: Element


def verify_homomorphism(gmap: GeneratorMap) -> Verified | FailingRelation:
    """Reduce b a - exchanged(rel, i, a, b) to normal form for the images a, b
    of every source pair i < j.

    Absent pairs commute in the source, so their images must commute too;
    all pairs are checked, not only the listed ones.

    Each image is reduced once, and the pairs are checked on the reduced
    images.  That gives the same defect as the raw images: the target is
    certified, so an element and its normal form differ by a member of the
    two-sided ideal of the relations, and normal forms are unique.  The
    defect is bilinear in a and b, up to a constant term that does not
    depend on them, so replacing a and b by their normal forms changes it
    only by a member of that ideal, which the normal form removes.

    A pair is settled by degrees, with no reduction, when both reduced
    images are single words, a = alpha t and b = beta u, and the relation
    is Multiplicative(s) or Additive(0) (s = 1), as ``twist_degree`` reads
    it.  The defect is then
    alpha beta (u t - s^-1 t u), and t u = nu u t in the target, with nu
    the twist-table degree ``exchange_degree(t, u)``; when nu is the degree
    of s, u t = s^-1 t u and the defect lies in the ideal, so its normal
    form is zero.  Any
    other pair, one whose degrees disagree included, is reduced, so every
    FailingRelation defect is a reduced one.  Either way a relation counts
    as checked when its defect's normal form is zero.
    """
    src, sys = gmap.source, gmap.target
    if not sys.certified:
        raise NotCertifiedError("confluence has not been certified for this system")
    images = [sys.normal_form(gmap.images[g]) for g in src.gens]
    count = 0
    for i, a in enumerate(images):
        for j in range(i + 1, src.n):
            b = images[j]
            rel = src.rel(i, j)
            if not _settled_by_degrees(sys, rel, a, b):
                defect = sys.normal_form(b.concat(a).sub(exchanged(rel, i, a, b)))
                if not defect.is_zero():
                    return FailingRelation((src.gens[i], src.gens[j]), defect)
            count += 1
    return Verified(count)


def _settled_by_degrees(sys: ReductionSystem, rel: Relation, a: Element, b: Element) -> bool:
    """Whether twist degrees prove that the defect of the reduced images a
    and b has normal form zero (see ``verify_homomorphism``)."""
    if len(a.terms) != 1 or len(b.terms) != 1:
        return False
    target = twist_degree(rel, sys.group)
    (t,), (u,) = a.terms, b.terms
    return target is not None and sys.exchange_degree(t, u) == target


def verified(gmap: GeneratorMap, what: str) -> Verified:
    """The Verified record of a map the theory guarantees, or VerificationError."""
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise VerificationError(f"{what} failed verification: {res}")
    return res
