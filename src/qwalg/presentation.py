"""Pairwise-relation presentations of polynomial algebras.

A presentation is N generators plus one relation per unordered pair, of one
of three kinds: a weighted commutator ``x y - y x = p`` (integer p), a
scalar twist ``x y = s * y x`` (s a declared scalar, never 1), or the
derivation-counting relation ``[w, y] = y``.  Absent pairs commute.  A
presentation holds the first two kinds as two antisymmetric matrices over
the generators, the Weyl weights and the degrees of the twists, and the
third as the counting generator of each Eulerian pair.  Every reader goes
to the matrices: the admissibility test, the generator changes of a
reduction, the rules of a system, the map check and the printed text.

``exchanged`` is the one place the three kinds are read as algebra: it gives
what g_j g_i equals under the relation of a pair i < j, and
``verify_homomorphism`` uses it to check a ``GeneratorMap`` relation by
relation, where a twist or commuting pair is not settled by degrees
(``Presentation.twist``).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .rewrite import Element, Failing, NotCertifiedError, ReductionSystem, Rule
from .cyclo import Coeff, CoeffRing
from .scalars import GroupMismatch, ScalarGroup


class PresentationError(ValueError):
    pass


class EulerianNotSupported(PresentationError):
    """Operation applies only to quantum/Weyl presentations."""


class Presentation:
    """Immutable presentation: two antisymmetric matrices over the
    generators, and the Eulerian pairs.

    ``weyl[a][b]`` is the integer p with g_a g_b - g_b g_a = p.
    ``degrees[a][b]`` is the degree (torsion mod e, *free) of the scalar s
    with g_a g_b = s g_b g_a when s is not 1, so ``degrees[b][a]`` is its
    inverse degree; None marks every other pair, the Weyl ones (commuting
    pairs among them) and the Eulerian ones.  ``eulerian`` maps each
    Eulerian pair i < j to the index of its counting generator w in
    [w, y] = y; such a pair is 0 in ``weyl``.
    """

    def __init__(self, group: ScalarGroup, gens, weyl: list[list[int]],
                 degrees: list[list[tuple | None]], eulerian: dict | None = None):
        self.group = group
        self.gens = tuple(gens)
        self.weyl = weyl
        self.degrees = degrees
        self.eulerian = eulerian or {}

    @staticmethod
    def from_items(group: ScalarGroup, gens, items) -> "Presentation":
        """The presentation of the relations (a, b, k) on distinct pairs,
        unchecked: k is None for [g_a, g_b] = g_b, an int p for
        g_a g_b - g_b g_a = p, and a degree for g_a g_b = s g_b g_a with s
        of that degree (torsion in [0, e)).  The parser is the checked way
        in from text."""
        n = len(gens)
        weyl = [[0] * n for _ in range(n)]
        degrees: list[list] = [[None] * n for _ in range(n)]
        eulerian = {}
        for a, b, k in items:
            if k is None:
                eulerian[min(a, b), max(a, b)] = a
            elif type(k) is int:
                weyl[a][b], weyl[b][a] = k, -k
            elif any(k):
                degrees[a][b], degrees[b][a] = k, group.inverse_degree(k)
        return Presentation(group, gens, weyl, degrees, eulerian)

    @property
    def n(self) -> int:
        return len(self.gens)

    def index(self, name: str) -> int:
        return self.gens.index(name)

    def twist(self, a: int, b: int) -> tuple | None:
        """The degree of mu with g_a g_b = mu g_b g_a: ``degrees[a][b]``, 0
        for a commuting pair, and None for a Weyl or an Eulerian pair."""
        d = self.degrees[a][b]
        if d is None and not self.weyl[a][b] and (min(a, b), max(a, b)) not in self.eulerian:
            return (0,) * (1 + self.group.rank)
        return d

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.group, self.gens, self.weyl, self.degrees, self.eulerian) == \
            (other.group, other.gens, other.weyl, other.degrees, other.eulerian)

    def __repr__(self):
        return (f"Presentation(gens={self.gens!r}, weyl={self.weyl!r}, "
                f"degrees={self.degrees!r}, eulerian={self.eulerian!r})")


class AdmissibilityReport(NamedTuple):
    admissible: bool
    witness: tuple[int, int, int] | None = None

    def triple(self, gens) -> str:
        """The violating triple by generator names, as (a,b,c)."""
        i, j, k = self.witness
        return f"({gens[i]},{gens[j]},{gens[k]})"


def check_admissible(p: Presentation) -> AdmissibilityReport:
    """Triangle test: every pair carrying a nonzero Weyl weight forces each
    third generator to relate to both endpoints by weights multiplying to 1
    (or by Weyl weights on both sides)."""
    if p.eulerian:
        raise EulerianNotSupported("admissibility is defined for quantum/Weyl "
                                   "presentations only")
    hit = triangle_violation(p.weyl, p.degrees)
    return AdmissibilityReport(hit is None, hit)


def triangle_violation(weyl, degrees) -> tuple[int, int, int] | None:
    """The first (i, j, k) with i < j a Weyl edge, in row order, and k a
    generator that breaks the triangle test, or None.

    The degrees of g_i g_k and g_j g_k sum to 0 exactly when
    degrees[j][k] is the inverse degree degrees[k][i], and both are None
    when both pairs are Weyl.  For k = i or j both sides are None."""
    for i, row in enumerate(weyl):
        for j in range(i + 1, len(row)):
            if row[j]:
                dj = degrees[j]
                for k, dki in enumerate(r[i] for r in degrees):
                    if dj[k] != dki:
                        return i, j, k
    return None


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


def change_generators(weyl, degrees, gens: list[str], op: Op) -> None:
    """Apply ``op`` in place to the matrices and generator names of a
    quantum/Weyl presentation; on an OpError they are left part changed.

    A scaling rescales row and column i of ``weyl``.  g_i + c g_j needs the
    rows i and j of ``degrees`` to agree (so it keeps every scalar twist of
    g_i) and adds c times row and column j of ``weyl`` to row and column i.
    A permutation re-indexes both matrices and the names."""
    n = len(gens)
    if isinstance(op, Permute):
        order = op.order
        if sorted(order) != list(range(n)):
            raise OpError("permutation is not a bijection")
        weyl[:] = [[weyl[a][b] for b in order] for a in order]
        degrees[:] = [[degrees[a][b] for b in order] for a in order]
        gens[:] = [gens[a] for a in order]
    elif isinstance(op, Scale):
        c = Fraction(op.factor)
        if c == 0:
            raise OpError("zero scale factor")
        row = weyl[op.index]
        for t, w in enumerate(row):
            if w:
                w = c * w
                if w.denominator != 1:
                    raise OpError("scaling would produce a non-integer Weyl weight")
                row[t], weyl[t][op.index] = int(w), -int(w)
    elif isinstance(op, AddMultiple):
        i, j, c = op.index, op.other, op.coeff
        if i == j:
            raise OpError("cannot add a generator to itself")
        if c == 0:
            return
        if degrees[i][j] is not None:
            raise OpError("combined generators must form a Weyl (or commuting) pair")
        di, dj = degrees[i], degrees[j]
        for t in range(n):  # rows i and j agree at t = i and t = j: None
            if di[t] != dj[t]:
                raise OpError(f"generator change mixes incompatible relations "
                              f"at third generator {gens[t]!r}")
        wi, wj = weyl[i], weyl[j]
        for t in range(n):
            if t != i:  # wj[j] = 0 keeps the weight of the pair (i, j)
                wi[t] += c * wj[t]
                weyl[t][i] = -wi[t]
    else:
        raise OpError(f"unknown operation {op!r}")


def apply_op(p: Presentation, op: Op) -> Presentation:
    """p after the generator change ``op``, or p itself when ``op`` changes
    nothing."""
    if p.eulerian:
        raise EulerianNotSupported("generator changes operate on quantum/Weyl "
                                   "presentations only")
    weyl, degrees, gens = [r[:] for r in p.weyl], [r[:] for r in p.degrees], list(p.gens)
    change_generators(weyl, degrees, gens, op)
    out = Presentation(p.group, gens, weyl, degrees)
    return p if out == p else out


def apply_certificate(p: Presentation, ops) -> Presentation:
    for op in ops:
        p = apply_op(p, op)
    return p


# ---------------------------------------------------------------------------
# Reduction systems from presentations.


def exchanged(p: Presentation, i: int, j: int, gi: Element, gj: Element) -> Element:
    """What g_j g_i equals under the relation of the pair i < j of p, with
    gi and gj standing in for g_i and g_j.

    This is the one place the relation kinds are read as algebra: the
    reduction rule of the pair rewrites g_j g_i to it, and a generator map
    is checked by reducing image(g_j) image(g_i) minus it to zero.
    """
    ij = gi.concat(gj)
    w = p.eulerian.get((i, j))
    if w is not None:  # [g_i, g_j] = g_j or [g_j, g_i] = g_i
        return ij.sub(gj) if w == i else ij.add(gi)
    d = p.degrees[j][i]
    if d is not None:  # g_j g_i = s^-1 g_i g_j, with s^-1 of degree d
        return ij.scale(Coeff.of_degree(ij.ring, d))
    if not p.weyl[i][j]:
        return ij
    return ij.add(Element.from_word(ij.ring, (), Coeff.from_rational(ij.ring, -p.weyl[i][j])))


def system_from_presentation(p: Presentation) -> ReductionSystem:
    """One quadratic rule g_j g_i -> exchanged(...) per pair i < j, in
    declaration order.  A twist or commuting pair states its rule by the
    degree ``p.twist(j, i)`` of mu in g_j g_i = mu g_i g_j, a Weyl pair
    writes g_i g_j - w out from w = weyl[i][j], and only an Eulerian pair
    goes through ``exchanged``."""
    ring = CoeffRing(p.group)
    one, rules = Coeff.one(ring), []
    for j in range(p.n):
        for i in range(j):
            if (i, j) in p.eulerian:
                rhs = exchanged(p, i, j, Element.from_word(ring, (i,)),
                                Element.from_word(ring, (j,)))
            elif (rhs := p.twist(j, i)) is None:
                rhs = Element.of_terms(ring, {(i, j): one,
                                              (): Coeff.from_rational(ring, -p.weyl[i][j])})
            rules.append(Rule((j, i), rhs))
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
    """Reduce b a - exchanged(source, i, j, a, b) to normal form for the
    images a, b of every source pair i < j.  The source and the target
    share one scalar group, or the map is refused with GroupMismatch.

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
    images are single words, a = alpha t and b = beta u, and the pair is a
    twist g_i g_j = s g_j g_i or commutes (s = 1), read off the source's
    matrices (``Presentation.twist``).  The defect is then
    alpha beta (u t - s^-1 t u), and t u = nu u t in the target, with nu
    the twist-table degree ``exchange_degree(t, u)``; when nu is the degree
    of s, u t = s^-1 t u and the defect lies in the ideal, so its normal
    form is zero.  Any other pair, one whose degrees disagree included, is
    reduced, so every FailingRelation defect is a reduced one.  Either way
    a relation counts as checked when its defect's normal form is zero.
    """
    src, sys = gmap.source, gmap.target
    if not sys.certified:
        raise NotCertifiedError("confluence has not been certified for this system")
    if src.group != sys.group:
        raise GroupMismatch("source and target scalar groups differ")
    images = [sys.normal_form(gmap.images[g]) for g in src.gens]
    count = 0
    for i, a in enumerate(images):
        for j in range(i + 1, src.n):
            b = images[j]
            if not _settled_by_degrees(sys, src.twist(i, j), a, b):
                defect = sys.normal_form(b.concat(a).sub(exchanged(src, i, j, a, b)))
                if not defect.is_zero():
                    return FailingRelation((src.gens[i], src.gens[j]), defect)
            count += 1
    return Verified(count)


def _settled_by_degrees(sys: ReductionSystem, d: tuple | None, a: Element, b: Element) -> bool:
    """Whether the twist degree d of a source pair proves that the defect of
    the reduced images a and b has normal form zero (see
    ``verify_homomorphism``)."""
    return (d is not None and len(a.terms) == 1 == len(b.terms)
            and sys.exchange_degree(*a.terms, *b.terms) == d)


def verified(gmap: GeneratorMap, what: str) -> Verified:
    """The Verified record of a map the theory guarantees, or VerificationError."""
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise VerificationError(f"{what} failed verification: {res}")
    return res
