"""A twist rule stated by its degree against the same rule written out.

A twist u h -> mu h u stated by the degree of mu is a twist-table entry
until a reduction uses it; its right side is built on first use.  Each drawn
system is built twice, once with its rules as the library states them (its
twists by degree) and once with every right side written out as an
``Element``, before either is used.  Both builds must give the same
confluence verdict, witness included, the same twist table and the same
reduction of drawn words; their extensions by the inverse of each z_i of a
quantum Weyl algebra must agree in the same way.
"""
from hypothesis import given, seed, settings, strategies as st

from qwalg.cyclo import Coeff
from qwalg.presentation import Presentation, system_from_presentation
from qwalg.rewrite import Element, ReductionSystem, Rule
from qwalg.scalars import ScalarGroup

from support import qweyl_algebras, relation_items, weights


def both_builds(s: ReductionSystem) -> tuple[ReductionSystem, ReductionSystem]:
    """s rebuilt from its rules as stated, and with each stated twist degree
    written out as the Element mu h u."""
    ring = s.ring
    written = [Rule(r.lhs, Element.of_terms(ring, {r.lhs[::-1]: Coeff.of_degree(ring, r.rhs)})
                    if isinstance(r.rhs, tuple) else r.rhs) for r in s.rules]
    assert any(isinstance(r.rhs, tuple) for r in s.rules) or not s._twists
    return (ReductionSystem(s.group, s.letters, s.rules),
            ReductionSystem(s.group, s.letters, written))


def assert_same_system(stated: ReductionSystem, written: ReductionSystem, words) -> None:
    """The same table, verdict (witness included), rules read through the
    accessor, and reductions of the words; normal forms when confluent."""
    assert stated._twists == written._twists
    verdict = stated.check_confluence()
    assert verdict == written.check_confluence()
    assert [(r.lhs, stated.right_side(r.lhs)) for r in stated.rules] == \
        [(r.lhs, written.right_side(r.lhs)) for r in written.rules]
    for w in words:
        el = Element.from_word(stated.ring, w)
        assert stated._reduce_terms(el.terms) == written._reduce_terms(el.terms)
        if stated.certified:
            assert stated.normal_form(el) == written.normal_form(el)
    assert stated.certified == written.certified


def drawn_words(draw, s: ReductionSystem):
    letter = st.integers(0, len(s.letters) - 1)
    return draw(st.lists(st.lists(letter, max_size=4).map(tuple), min_size=1, max_size=6))


@st.composite
def presentation_systems(draw):
    """The system of a presentation over Z/e x Z^m whose pairs are Weyl,
    twisted, commuting, Eulerian or absent, in drawn orientations."""
    e = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    m = draw(st.integers(0, 2))
    group = ScalarGroup(e, ("q", "p")[:m], "zeta" if e > 1 else None)
    n = draw(st.integers(2, 5))
    items = relation_items(draw, group, n, ("additive", "multiplicative", "commuting", "eulerian"),
                           weights(group))
    return system_from_presentation(Presentation.from_items(group, [f"g{i}" for i in range(n)],
                                                            items))


@seed(3701)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_presentation_twists_by_degree_match_the_rules_written_out(data):
    s = data.draw(presentation_systems())
    stated, written = both_builds(s)
    assert_same_system(stated, written, drawn_words(data.draw, s))


@seed(3702)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_localization_twists_by_degree_match_the_rules_written_out(data):
    """The base of a drawn quantum Weyl algebra and each extension of its
    localization chain, rebuilt both ways; each built-both-ways parent is
    extended by the inverse of the next z_i, and the two extensions agree."""
    a = data.draw(qweyl_algebras(min_quantum=1))
    s = a.system()
    for i in a.quantum_indices:
        stated, written = both_builds(s)
        assert_same_system(stated, written, drawn_words(data.draw, s))
        z = a.z_element(s, i)
        ext_stated, _ = stated.adjoin_inverse(z, f"z{i+1}^-1")
        ext_written, _ = written.adjoin_inverse(z, f"z{i+1}^-1")
        assert ext_stated._twists == ext_written._twists
        assert [(r.lhs, ext_stated.right_side(r.lhs)) for r in ext_stated.rules] == \
            [(r.lhs, ext_written.right_side(r.lhs)) for r in ext_written.rules]
        s, _ = s.adjoin_inverse(z, f"z{i+1}^-1")
    stated, written = both_builds(s)
    assert_same_system(stated, written, drawn_words(data.draw, s))


def test_an_all_twist_presentation_is_certified_with_no_right_side_built():
    """Every overlap of an all-twist presentation is settled by the degree
    criterion, so certifying it builds no twist's right side; the first
    reduction through a twist builds that one right side, once."""
    g = ScalarGroup(4, ("q",), "zeta")
    n = 10
    items = [(i, j, g.scalar(i + j, (i - j,))) for i in range(n) for j in range(i + 1, n)]
    p = Presentation.from_items(g, [f"g{i}" for i in range(n)],
                                [(i, j, s.degree()) for i, j, s in items])
    s = system_from_presentation(p)
    assert s.certify()
    assert all(isinstance(rhs, tuple) for rhs in s._rhs.values())
    assert s.normal_form(s.word("g1", "g0")) == s.word("g0", "g1").scale(
        Coeff.of_degree(s.ring, p.degrees[1][0]))
    built = s._rhs[1, 0]
    assert isinstance(built, Element) and s.right_side((1, 0)) is built
    assert sum(isinstance(rhs, Element) for rhs in s._rhs.values()) == 1
