"""The matrix route against the relation-object route it replaced.

A quantum/Weyl presentation is held as two integer matrices: the Weyl
weights and the degrees of the scalar twists.  This module keeps a copy of
the route that held one relation object per pair i < j, with relation kinds
of its own: its normalizing constructor, triangle test, generator changes
and graph reduction.  Drawn
scrambles of canonical algebras and drawn random presentations go through
both routes, which must give the same verdict and witness, the same refusal
of each generator change, the same presentation after each change, and the
same certificate, pairing, Lambda and invariants.
"""
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from qwalg.mixed import _ext_gcd, invariants, reduce_to_canonical
from qwalg.presentation import (AddMultiple, OpError, Permute, Presentation, Scale,
                                apply_certificate, apply_op, check_admissible)
from qwalg.scalars import Scalar, ScalarGroup

from support import canonical


# -- the relation-object route ----------------------------------------------------


@dataclass(frozen=True)
class Additive:
    """x y - y x = weight, an integer."""
    weight: int


@dataclass(frozen=True)
class Multiplicative:
    """x y = weight * y x, a declared scalar."""
    weight: Scalar


def normalized(a, b, rel):
    """rel, read in the (a, b) orientation, as stored for the pair i < j;
    None when the pair commutes (weight 0 or 1)."""
    if isinstance(rel, Additive):
        w = rel.weight if a < b else -rel.weight
        return Additive(w) if w else None
    w = rel.weight if a < b else rel.weight.inv()
    return None if w.is_one() else Multiplicative(w)


class Relations:
    """A presentation as a dict of normalized relations keyed by i < j."""

    def __init__(self, group, gens, items):
        self.group, self.gens, self.rels = group, tuple(gens), {}
        for a, b, rel in items:
            stored = normalized(a, b, rel)
            if stored is not None:
                self.rels[min(a, b), max(a, b)] = stored

    @property
    def n(self):
        return len(self.gens)

    def rel(self, a, b):
        stored = self.rels.get((min(a, b), max(a, b)))
        if stored is None:
            return Additive(0)
        if a < b:
            return stored
        if isinstance(stored, Additive):
            return Additive(-stored.weight)
        return Multiplicative(stored.weight.inv())

    def additive_weight(self, a, b):
        r = self.rel(a, b)
        return r.weight if isinstance(r, Additive) else None

    def presentation(self):
        """The same relations as a presentation's matrices."""
        return Presentation.from_items(self.group, self.gens, [
            (i, j, rel.weight if isinstance(rel, Additive) else rel.weight.degree())
            for (i, j), rel in self.rels.items()])


def relations_of(p: Presentation) -> dict:
    """The stored relations of Relations, read back off p's matrices."""
    out = {}
    for i in range(p.n):
        for j in range(i + 1, p.n):
            d = p.degrees[i][j]
            if d is not None:
                out[i, j] = Multiplicative(p.group.scalar(d[0], d[1:]))
            elif p.weyl[i][j]:
                out[i, j] = Additive(p.weyl[i][j])
    return out


def check(p: Relations):
    for (i, j), rel in sorted(p.rels.items()):
        if not isinstance(rel, Additive):
            continue
        for k in range(p.n):
            if k in (i, j):
                continue
            rik, rjk = p.rel(i, k), p.rel(j, k)
            if isinstance(rik, Additive) and isinstance(rjk, Additive):
                continue
            if isinstance(rik, Multiplicative) and isinstance(rjk, Multiplicative) \
                    and rik.weight.mul(rjk.weight).is_one():
                continue
            return False, (i, j, k)
    return True, None


def change(p: Relations, op) -> Relations:
    n = p.n
    if isinstance(op, Permute):
        if sorted(op.order) != list(range(n)):
            raise OpError("permutation is not a bijection")
        inv = [0] * n
        for new, old in enumerate(op.order):
            inv[old] = new
        return Relations(p.group, [p.gens[o] for o in op.order],
                         [(inv[i], inv[j], rel) for (i, j), rel in p.rels.items()])
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
        return Relations(p.group, p.gens, items)
    i, j, c = op
    if i == j:
        raise OpError("cannot add a generator to itself")
    if c == 0:
        return p
    if p.additive_weight(i, j) is None:
        raise OpError("combined generators must form a Weyl (or commuting) pair")
    items = [(a, b, rel) for (a, b), rel in p.rels.items() if i not in (a, b)]
    items.append((i, j, p.rel(i, j)))
    for t in range(n):
        if t in (i, j):
            continue
        rit, rjt = p.rel(i, t), p.rel(j, t)
        if isinstance(rit, Additive) and isinstance(rjt, Additive):
            items.append((i, t, Additive(rit.weight + c * rjt.weight)))
        elif isinstance(rit, Multiplicative) and rit == rjt:
            items.append((i, t, rit))
        else:
            raise OpError(f"generator change mixes incompatible relations "
                          f"at third generator {p.gens[t]!r}")
    return Relations(p.group, p.gens, items)


def reduce(p: Relations):
    """(ops, pairing, n, r, Lambda) of the graph reduction."""
    work, ops = p, []

    def do(op):
        nonlocal work
        if not (isinstance(op, Scale) and op.factor == 1):
            work = change(work, op)
            ops.append(op)

    while True:
        deg = [0] * p.n
        for (i, j), rel in work.rels.items():
            if isinstance(rel, Additive):
                deg[i] += 1
                deg[j] += 1
        isolated = set()
        for (i, j), rel in work.rels.items():
            if isinstance(rel, Additive) and deg[i] == 1 and deg[j] == 1:
                isolated.update((i, j))
        candidates = [v for v in range(p.n) if deg[v] and v not in isolated]
        if not candidates:
            break
        x = candidates[0]
        nbrs = [t for t in range(p.n) if t != x and work.additive_weight(x, t)]
        for k in range(len(nbrs) - 2, -1, -1):
            a, b = nbrs[k], nbrs[k + 1]
            pa, pb = work.additive_weight(x, a), work.additive_weight(x, b)
            if pa % pb == 0:
                nbrs[k], nbrs[k + 1] = b, a
                continue
            if pb % pa == 0:
                continue
            _, u, v = _ext_gcd(pa, pb)
            do(Scale(a, Fraction(u)))
            do(AddMultiple(a, b, v))
        lead = nbrs[0]
        p_lead = work.additive_weight(x, lead)
        for t in nbrs[1:]:
            pt = work.additive_weight(x, t)
            if pt:
                do(AddMultiple(t, lead, -(pt // p_lead)))
        do(Scale(x, Fraction(1, work.additive_weight(x, lead))))
        for t in range(p.n):
            if t not in (x, lead) and work.additive_weight(lead, t):
                do(AddMultiple(t, x, work.additive_weight(lead, t)))
    pairs = []
    for (i, j), rel in sorted(work.rels.items()):
        if isinstance(rel, Additive):
            xi, yi = (i, j) if rel.weight > 0 else (j, i)
            if abs(rel.weight) != 1:
                do(Scale(xi, Fraction(1, abs(rel.weight))))
            pairs.append((xi, yi))
    pairs.sort(key=lambda t: min(t))
    r = len(pairs)
    n = p.n - r
    others = [v for v in range(p.n) if all(v not in pr for pr in pairs)]
    do(Permute(tuple([y for _, y in pairs] + others + [x for x, _ in pairs])))
    one = p.group.one()
    lam = [[one if i == j or isinstance(work.rel(i, j), Additive) else work.rel(i, j).weight
            for j in range(n)] for i in range(n)]
    return tuple(ops), tuple((work.gens[n + k], work.gens[k]) for k in range(r)), n, r, lam


# -- draws ------------------------------------------------------------------------


@st.composite
def groups(draw):
    e, m = draw(st.sampled_from((1, 2, 4, 6))), draw(st.integers(0, 2))
    return ScalarGroup(e, ("q", "p")[:m], "zeta" if e > 1 else None)


def scalars(g):
    return st.builds(lambda t, f: g.scalar(t, f), st.integers(0, g.torsion_order - 1),
                     st.tuples(*[st.integers(-2, 2)] * g.rank))


def ops(size):
    index = st.integers(0, size - 1)
    return st.one_of(
        st.builds(Scale, index, st.sampled_from((Fraction(-1), Fraction(2), Fraction(3),
                                                 Fraction(-2), Fraction(1, 2)))),
        st.builds(AddMultiple, index, index, st.integers(-3, 3)),
        st.permutations(range(size)).map(lambda order: Permute(tuple(order))))


@st.composite
def scrambles(draw):
    """A canonical algebra (n + r <= 10) in relation form, and generator
    changes to try on it."""
    g = draw(groups())
    n = draw(st.integers(1, 6))
    r = draw(st.integers(0, min(n, 10 - n)))
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(scalars(g))
            lam[j][i] = lam[i][j].inv()
    items = [(i, j, Multiplicative(lam[i][j])) for i in range(n) for j in range(i + 1, n)]
    for i in range(r):
        items.append((n + i, i, Additive(1)))
        items += [(j, n + i, Multiplicative(lam[i][j])) for j in range(n) if j != i]
        items += [(n + i, n + j, Multiplicative(lam[i][j])) for j in range(i + 1, r)]
    names = canonical(g, n, r, lam).gens()
    return Relations(g, names, items), draw(st.lists(ops(n + r), max_size=12))


@st.composite
def random_presentations(draw):
    """Drawn relations on 3 to 7 generators: mostly inadmissible, or Weyl
    weights only, which are always admissible and reduce by gcd steps."""
    g = draw(groups())
    size = draw(st.integers(3, 7))
    kinds = st.integers(-3, 3).map(Additive)
    if draw(st.booleans()):
        kinds = st.one_of(st.integers(-2, 2).map(Additive), scalars(g).map(Multiplicative))
    items = [(a, b, draw(kinds)) if draw(st.booleans()) else (b, a, draw(kinds))
             for a in range(size) for b in range(a + 1, size)]
    return Relations(g, tuple(f"g{k}" for k in range(size)), items)


# -- the comparisons --------------------------------------------------------------


def assert_same_classification(ref: Relations):
    """Both routes agree on the verdict and witness and, when admissible, on
    the reduction, its replay and the invariants."""
    p = ref.presentation()
    report = check_admissible(p)
    assert report == check(ref)
    if not report.admissible:
        return
    algebra, cert = reduce_to_canonical(p)
    ops, pairing, n, r, lam = reduce(ref)
    assert (cert.ops, cert.pairing, algebra.n, algebra.r) == (ops, pairing, n, r)
    assert [list(row) for row in algebra.lam] == lam
    replayed = ref
    for op in ops:
        replayed = change(replayed, op)
    assert apply_certificate(p, cert.ops) == replayed.presentation()
    assert invariants(algebra) == invariants(canonical(p.group, n, r, lam))


@settings(max_examples=200, deadline=None)
@given(scrambles())
def test_scrambles_classify_alike_on_both_routes(case):
    """Each generator change is refused with the same message, or gives the
    same presentation, on both routes; then the scramble classifies alike."""
    ref, changes = case
    for op in changes:
        p = ref.presentation()
        try:
            ref = change(ref, op)
        except OpError as exc:
            expected = str(exc)
        else:
            expected = None
        try:
            out = apply_op(p, op)
        except OpError as exc:
            assert str(exc) == expected
        else:
            assert expected is None and out == ref.presentation()
            assert relations_of(out) == ref.rels
    assert_same_classification(ref)


@settings(max_examples=150, deadline=None)
@given(random_presentations())
def test_random_presentations_classify_alike_on_both_routes(ref):
    assert_same_classification(ref)
