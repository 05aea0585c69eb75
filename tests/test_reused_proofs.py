"""Overlaps settled by what the engine has already proved.

An extension by an adjoined inverse settles the identification overlaps
u a b and a b w of its rule a b -> c^-1 (Z - tail) with a parent rule u a or
b w, under the order conditions a b u < u a b and w a b < a b w, from the
parent's certified normality scalars: every such overlap must have one-step
results with equal normal forms, on the localization grid, the corpus
inversion chains and drawn localizations.  An identification overlap
outside those conditions is reduced.  The mirror criterion accepts a
remainder that reduces to zero, reduced once per (w, nu, remainder terms)
and remembered by the system; a remainder that does not vanish leaves the
full-scan witness as it was, and keys that differ in a denominator or a
torsion degree are kept apart.  The base of an all-quantum
quantum Weyl algebra needs at most 2(n - 1) reductions, and its extensions
reduce no identification overlap.
"""
import pytest
from hypothesis import given, settings, strategies as st

from qwalg.cyclo import Coeff
from qwalg.presentation import certified_system, system_from_presentation
from qwalg.qwa import parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed
from qwalg.rewrite import Failing, NotNormalError, ReductionSystem
from qwalg.scalars import ScalarGroup

from test_confluence_incremental import (TRIANGLE, assert_matches_two_sided, qweyl_grid,
                                         record_extensions, run, CORPUS)
from test_inverse_construction import grid_extensions_of


def identification_lhs(s: ReductionSystem) -> set:
    """Left sides of the identification rules: ascending, right side not 1."""
    one = s.one()
    return {r.lhs for r in s.rules if r.lhs[0] < r.lhs[1] and r.rhs != one}


def settled_identification_overlaps(ext: ReductionSystem):
    """The overlaps of ext settled by construction that hold an
    identification rule."""
    ident = identification_lhs(ext)
    return [(w, r1, r2) for w, r1, r2 in ext._ambiguities(0)
            if w in ext._by_construction and (w[:2] in ident or w[1:] in ident)]


def assert_identification_holds(ext: ReductionSystem) -> int:
    """Each identification overlap settled by construction has one-step
    results with equal normal forms; returns how many there are."""
    overlaps = settled_identification_overlaps(ext)
    for word, r1, r2 in overlaps:
        a, b = ext._one_step(word, r1, r2)
        assert ext._reduce(a) == ext._reduce(b), ext.format_word(word)
    return len(overlaps)


@pytest.mark.parametrize("e", (1, 2, 3, 4, 12))
def test_grid_identification_overlaps_reduce_alike(e):
    settled = 0
    for n in (1, 2, 3, 4):
        for a in qweyl_grid(e, n):
            for ext, _ in grid_extensions_of(a):
                settled += assert_identification_holds(ext)
    assert settled


def test_corpus_chains_identification_overlaps_reduce_alike(monkeypatch):
    built = record_extensions(monkeypatch, lambda parent, ext: ext)
    for f in sorted(CORPUS.glob("*.qwa")):
        for cmd in (["embed", "mixed"], ["qweyl", "localize"]):
            run(cmd + [str(f)])
    assert built
    assert sum(assert_identification_holds(ext) for ext in built)


@st.composite
def localizations(draw):
    """A quantum Weyl algebra with n <= 4 over Z/e x Z<q> with at least one
    quantum index; q_i and Lambda are drawn."""
    e = draw(st.sampled_from((1, 2, 3, 4, 12)))
    n = draw(st.integers(1, 4))
    g = ScalarGroup(e, ("q",), "zeta" if e > 1 else None)

    def scalar(low, high):
        return g.scalar(draw(st.integers(0, e - 1)), (draw(st.integers(low, high)),))

    qs = tuple(scalar(-1, 2) for _ in range(n))
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = scalar(-1, 1)
            lam[j][i] = lam[i][j].inv()
    a = QuantumWeylAlgebra(g, n, qs, lam)
    return a if a.quantum_indices else QuantumWeylAlgebra(g, n, (g.free_gen("q"),) + qs[1:], lam)


@settings(max_examples=60, deadline=None)
@given(localizations())
def test_drawn_localizations_identification_overlaps_reduce_alike(a):
    settled = sum(assert_identification_holds(ext) for ext, _ in grid_extensions_of(a))
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


# -- the mirror criterion with a remainder --------------------------------------


def count_reductions(monkeypatch) -> list:
    """A list that grows by one entry per ``_reduce_terms`` call."""
    calls = []
    real = ReductionSystem._reduce_terms

    def counted(self, terms):
        calls.append(self)
        return real(self, terms)
    monkeypatch.setattr(ReductionSystem, "_reduce_terms", counted)
    return calls


@pytest.mark.parametrize("tail", ("1", "2", "-3"))
def test_a_constant_tail_that_does_not_vanish_keeps_the_full_scan_witness(tail):
    """In the triangle with c b = b c + k and c a = zeta a c, the constant
    leaves the remainder k (a - zeta^2 a) in the overlap c b a: not zero, so
    it is not remembered, and the Failing witness is the full scan's."""
    text = TRIANGLE.format(ca="zeta").replace("b c + 1", f"b c + {tail}")
    s = system_from_presentation(parse_presentation(text))
    expected = assert_matches_two_sided(s)
    assert isinstance(expected, Failing)
    assert s.format_word(expected.word) == "c b a"
    assert not s._mirrored(expected.word, s._rhs[expected.word[:2]])
    assert not s._remainders
    assert s.check_confluence() == expected


def quantum_weyl(group, n, qs, p):
    """The quantum Weyl algebra with Lambda = p above the diagonal."""
    one = group.one()
    lam = [[one if i == j else (p if i < j else p.inv()) for j in range(n)] for i in range(n)]
    return QuantumWeylAlgebra(group, n, qs, lam)


def base_remainder(s: ReductionSystem, word):
    """(w, nu, remainder terms) of the mirror criterion on the overlap word."""
    u, v, w = word
    nu = s._word_degree(w, (u, v), right=True)
    rest = [(t, c) for t, c in s._rhs[(u, v)].terms.items()
            if s._word_degree(w, t, right=True) != nu]
    return w, nu, rest


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
    assert s._remainder_vanishes(w, nu, rest) and not calls

    over = Coeff.from_scalar(s.ring, q).add(Coeff.one(s.ring)).inv()
    assert over.den
    scaled = [(t, c.mul(over)) for t, c in rest]
    assert all(c.num == d.num and c.den != d.den for (_, c), (_, d) in zip(rest, scaled))
    assert s._remainder_vanishes(w, nu, scaled) and len(calls) == 1
    assert len(s._remainders) == len(before) + 1
    assert s._remainder_vanishes(w, nu, scaled) and len(calls) == 1

    (t0, c0), (t1, c1) = rest
    assert not s._remainder_vanishes(w, nu, [(t0, c0), (t1, c1.mul(over))])
    torsion = ((nu[0] + 2) % 4, *nu[1:])
    assert not s._remainder_vanishes(w, torsion, rest)
    assert len(calls) == 3 and len(s._remainders) == len(before) + 1


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
        ident = identification_lhs(ext)
        assert (u, v) not in ident and (v, w) not in ident
