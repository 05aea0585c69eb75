"""Overlaps settled by what the engine has already proved.

An extension by an adjoined inverse settles the identification overlaps
u a b and a b w of its rule a b -> c^-1 (Z - tail) with a parent rule u a or
b w, under the order conditions a b u < u a b and w a b < a b w, from the
parent's certified normality scalars: every such overlap must have one-step
results with equal normal forms, on the localization grid, the corpus
inversion chains and drawn localizations.  An identification overlap
outside those conditions is reduced.  The degree criterion accepts a
remainder that reduces to zero, reduced once per (side, x, nu, remainder
terms) and remembered by the system; a remainder whose words all have
degrees is not tried, one that does not vanish leaves the full-scan witness
as it was, and keys that differ in the side, a denominator or a torsion
degree are kept apart.  A left remainder settles an overlap of a
reordered quantum Weyl base.  The base of an all-quantum
quantum Weyl algebra needs at most 2(n - 1) reductions, and its extensions
reduce no identification overlap.
"""
import pytest
from hypothesis import given, settings

from qwalg.cyclo import Coeff
from qwalg.presentation import certified_system, system_from_presentation
from qwalg.qwa import parse_presentation
from qwalg.qweyl import localize_to_mixed
from qwalg.rewrite import Confluent, Element, Failing, NotNormalError, ReductionSystem, Rule
from qwalg.scalars import ScalarGroup

from support import (TRIANGLE, assert_matches_two_sided, count_reductions, identification_rules,
                     localization_chain, qweyl_algebra, qweyl_algebras, qweyl_grid,
                     record_extensions, run_corpus)


def settled_identification_overlaps(ext: ReductionSystem):
    """The overlaps of ext settled by construction that hold an
    identification rule."""
    ident = {r.lhs for r in identification_rules(ext)}
    return [(w, r1, r2) for w, r1, r2 in ext._candidates(0, full=True)
            if w in ext._by_construction and (w[:2] in ident or w[1:] in ident)]


def assert_identification_holds(ext: ReductionSystem) -> int:
    """Each identification overlap settled by construction has one-step
    results with equal normal forms; returns how many there are."""
    overlaps = settled_identification_overlaps(ext)
    for word, r1, r2 in overlaps:
        a, b = ext._one_step(word)
        assert ext._reduce_terms(a.terms) == ext._reduce_terms(b.terms), ext.format_word(word)
    return len(overlaps)


@pytest.mark.parametrize("e", (1, 2, 3, 4, 12))
def test_grid_identification_overlaps_reduce_alike(e):
    settled = 0
    for n in (1, 2, 3, 4):
        for a in qweyl_grid(e, n):
            for ext, _ in localization_chain(a):
                settled += assert_identification_holds(ext)
    assert settled


def test_corpus_chains_identification_overlaps_reduce_alike(monkeypatch):
    built = record_extensions(monkeypatch, lambda parent, ext: ext)
    run_corpus(("embed", "mixed"), ("qweyl", "localize"))
    assert built
    assert sum(assert_identification_holds(ext) for ext in built)


@settings(max_examples=60, deadline=None)
@given(qweyl_algebras(min_quantum=1))
def test_drawn_localizations_identification_overlaps_reduce_alike(a):
    settled = sum(assert_identification_holds(ext) for ext, _ in localization_chain(a))
    assert settled


def test_identification_overlap_outside_the_order_conditions_is_reduced(monkeypatch):
    """Commuting a, b with a inverted: the central element a^-1 b + 1 gets
    the identification rule a^-1 b -> Z - 1.  Its overlap a a^-1 b with the
    parent rule a a^-1 -> 1 has a b u = a^-1 b a above u a b = a a^-1 b, so
    the construction does not settle it.  It is reduced, and it does not
    resolve (b against Z a - a): the extension is refused at that word.  The
    overlaps b a^-1 b, a^-1 b a and a^-1 b a^-1 meet the conditions and are
    settled."""
    s = certified_system(parse_presentation(
        "scalars { free q }\ngenerators a, b\nrelations {\n  b a = 1 * a b\n}\n"))
    s, _ = s.invert_generator("a")
    a, a_inv, b = (s.index(x) for x in ("a", "a^-1", "b"))
    seen = []
    real = ReductionSystem._certified_inverse

    def certified_inverse(self, g, known, identified=frozenset()):
        seen.append(identified)
        return real(self, g, known, identified)
    monkeypatch.setattr(ReductionSystem, "_certified_inverse", certified_inverse)
    with pytest.raises(NotNormalError, match=r"breaks confluence at a a\^-1 b$"):
        s.adjoin_inverse(s.word("a^-1", "b").add(s.one()), "t^-1")
    assert seen == [{(b, a_inv, b), (a_inv, b, a), (a_inv, b, a_inv)}]


# -- the degree criterion with a remainder --------------------------------------


@pytest.mark.parametrize("tail", ("1", "2", "-3"))
def test_a_constant_tail_that_does_not_vanish_keeps_the_full_scan_witness(tail, monkeypatch):
    """In the triangle with c b = b c + k and c a = zeta a c, the constant
    would leave the remainder k (a - zeta^2 a) in the overlap c b a.  Its one
    word, the empty word, has a degree, so the remainder is not tried (no
    reduction), and the Failing witness is the full scan's."""
    text = TRIANGLE.format(ca="zeta").replace("b c + 1", f"b c + {tail}")
    s = system_from_presentation(parse_presentation(text))
    expected = assert_matches_two_sided(s)
    assert isinstance(expected, Failing)
    assert s.format_word(expected.word) == "c b a"
    calls = count_reductions(monkeypatch)
    assert not s._graded(expected.word, s._rhs[expected.word[:2]], False)
    assert not calls and not s._remainders
    assert s.check_confluence() == expected


def test_a_remainder_with_an_ungraded_word_that_does_not_vanish_keeps_the_witness(monkeypatch):
    """The triangle with c a = zeta a c and c b = b c + d, where d a = a d + 1
    gives a no degree on d: the remainder d a - zeta^2 a d of the overlap
    c b a is tried, once, and reduces to (1 - zeta^2) a d + 1.  It is not
    remembered, and the Failing witness c b a is the full scan's."""
    g = ScalarGroup(4, (), "zeta")
    a, b, c, d = range(4)
    ring = ReductionSystem(g, (), []).ring
    one, zeta = Coeff.one(ring), Coeff.of_degree(ring, (1,))
    rhs = {(b, a): {(a, b): zeta}, (c, a): {(a, c): zeta}, (c, b): {(b, c): one, (d,): one},
           (d, a): {(a, d): one, (): one}, (d, b): {(b, d): one}, (d, c): {(c, d): one}}
    s = ReductionSystem(g, ("a", "b", "c", "d"),
                        [Rule(lhs, Element(ring, terms)) for lhs, terms in rhs.items()])
    expected = assert_matches_two_sided(s)
    assert isinstance(expected, Failing) and expected.word == (c, b, a)
    calls = count_reductions(monkeypatch)
    assert not s._graded(expected.word, s._rhs[c, b], False)
    assert len(calls) == 1 and not s._remainders
    assert s.check_confluence() == expected


def quantum_weyl(group, n, qs, p):
    """The quantum Weyl algebra with Lambda = p above the diagonal."""
    one = group.one()
    lam = [[one if i == j else (p if i < j else p.inv()) for j in range(n)] for i in range(n)]
    return qweyl_algebra(group, n, qs, lam)


def base_remainder(s: ReductionSystem, word):
    """(w, nu, remainder terms) of the criterion on the right of the
    overlap word."""
    u, v, w = word
    nu = s._word_degree(w, (u, v))
    rest = [(t, c) for t, c in s.right_side((u, v)).terms.items() if s._word_degree(w, t) != nu]
    return w, s.group.inverse_degree(nu), rest


def test_remainder_memo_keeps_denominators_and_torsion_apart(monkeypatch):
    """The overlap x2 y2 y1 of the quantum Weyl base over Z/4 x Z<q> leaves
    the remainder 1, (q - 1) y1 x1 against y1.  The same terms over 1 + q
    are a second entry; one term over 1 + q, or the degree with another
    torsion part, does not vanish and is not taken from the memo."""
    g = ScalarGroup(4, ("q",), "zeta")
    q = g.free_gen("q")
    s = quantum_weyl(g, 2, (q, q), g.scalar(1)).system()
    w, nu, rest = base_remainder(s, (s.index("x2"), s.index("y2"), s.index("y1")))
    assert [t for t, _ in rest] == [(), (s.index("y1"), s.index("x1"))]
    before = set(s._remainders)
    assert len(before) == 2  # against y1 and against x1
    calls = count_reductions(monkeypatch)
    assert s._remainder_vanishes(w, nu, rest, False) and not calls

    over = Coeff.of_degree(s.ring, q.degree()).add(Coeff.one(s.ring)).inv()
    assert over.den
    scaled = [(t, c.mul(over)) for t, c in rest]
    assert all(c.num == d.num and c.den != d.den for (_, c), (_, d) in zip(rest, scaled))
    assert s._remainder_vanishes(w, nu, scaled, False) and len(calls) == 1
    assert len(s._remainders) == len(before) + 1
    assert s._remainder_vanishes(w, nu, scaled, False) and len(calls) == 1

    (t0, c0), (t1, c1) = rest
    assert not s._remainder_vanishes(w, nu, [(t0, c0), (t1, c1.mul(over))], False)
    torsion = ((nu[0] + 2) % 4, *nu[1:])
    assert not s._remainder_vanishes(w, torsion, rest, False)
    assert len(calls) == 3 and len(s._remainders) == len(before) + 1


def test_remainder_memo_keeps_the_sides_apart():
    """In the quantum plane b a = q a b, the left remainder b a - q a b of
    x = b, nu = q and the word a vanishes.  The right one, a b - q b a, is
    (1 - q^2) a b: it is -q times the left remainder for q^-1, so a memo
    without the side would take it as proved."""
    s = certified_system(parse_presentation(
        "scalars { free q }\ngenerators a, b\nrelations {\n  b a = q * a b\n}\n"))
    a, b = s.index("a"), s.index("b")
    q, rest = (0, 1), [((a,), Coeff.one(s.ring))]
    assert s._remainder_vanishes(b, q, rest, True)
    assert not s._remainder_vanishes(b, q, rest, False)
    assert len(s._remainders) == 1


def test_a_left_remainder_vanishes_on_a_reordered_quantum_weyl_base():
    """The base of the quantum Weyl algebra for n = 2 with its letters in
    the order y1, y2, x2, x1 (each twist turned to descend) is confluent.
    Its overlap x1 x2 y2 is settled on the left only: the words 1 and y1 x1
    of the rule x2 y2 leave a remainder that reduces to zero."""
    g = ScalarGroup(1, ("q", "p"))
    base = quantum_weyl(g, 2, (g.free_gen("q"),) * 2, g.free_gen("p")).system()
    order = ("y1", "y2", "x2", "x1")
    new = {base.index(name): i for i, name in enumerate(order)}
    rules = []
    for r in base.rules:
        lhs = tuple(new[i] for i in r.lhs)
        terms = {tuple(new[i] for i in t): c for t, c in base.right_side(r.lhs).terms.items()}
        if lhs[0] < lhs[1]:  # a b -> mu b a becomes b a -> mu^-1 a b
            [(t, c)] = terms.items()
            lhs, terms = t, {lhs: c.inv()}
        rules.append(Rule(lhs, Element(base.ring, terms)))
    s = ReductionSystem(g, order, rules)
    assert isinstance(assert_matches_two_sided(s), Confluent)
    word = tuple(s.index(name) for name in ("x1", "x2", "y2"))
    r1, r2 = s._rhs[word[:2]], s._rhs[word[1:]]
    assert s._graded(word, r2, True) and not s._graded(word, r1, False)
    assert [key[:2] for key in s._remainders] == [(True, s.index("x1"))]


def test_all_quantum_base_reduces_once_per_remainder(monkeypatch):
    """n = 8, every index quantum: the base has n(n - 1) overlaps x_j y_j w
    (w = y_i or x_i, i < j), whose remainders depend on w alone, so it takes
    at most 2(n - 1) reductions; no extension reduces an identification
    overlap."""
    n = 8
    g = ScalarGroup(1, ("q", "p"))
    a = quantum_weyl(g, n, (g.free_gen("q"),) * n, g.free_gen("p"))
    calls = count_reductions(monkeypatch)
    s = a.system()
    assert len(calls) <= 2 * (n - 1)
    assert len(s._remainders) == len(calls)

    reduced = []
    real = ReductionSystem._unsettled

    def unsettled(self, known):
        for overlap in real(self, known):
            reduced.append((self, overlap[0]))
            yield overlap
    monkeypatch.setattr(ReductionSystem, "_unsettled", unsettled)
    res = localize_to_mixed(a)
    assert res.relations_checked == (2 * n) * (2 * n - 1) // 2
    for ext, (u, v, w) in reduced:
        ident = {r.lhs for r in identification_rules(ext)}
        assert (u, v) not in ident and (v, w) not in ident
