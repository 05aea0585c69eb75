"""Checks settled from the twist table against the references that reduce.

Three checks ask the twist table before they reduce.  A relation of a
generator map whose two reduced images are single words is settled when
their exchange degree is that of the relation; such a pair must have a zero
reduced defect, a pair whose degrees disagree must fail as the raw-image
reference does, and a pair whose defect is zero must be settled.  A letter
that moves through a normal form by twist rules only is known to give a
non-zero product: that product has one term per term of the normal form.
The left overlap criterion turns a one-letter word above u round through its
rule; drawn systems with an appended letter Z, the largest, that a rule v w
holds agree with the two-sided reference.
"""
from functools import cache

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from qwalg.cyclo import Coeff
from qwalg.presentation import (FailingRelation, GeneratorMap, Presentation,
                                _settled_by_degrees, certified_system, exchanged,
                                verify_homomorphism)
from qwalg.qweyl import localize_to_mixed
from qwalg.rewrite import Confluent, Element, Failing, ReductionSystem
from qwalg.scalars import ScalarGroup

from support import (assert_graded_case, assert_same_commutation, corpus_systems, find_graded,
                     graded_systems, localization_chain, qweyl_grid, raw_image_verify)


@cache
def localizations(e: int) -> tuple[ReductionSystem, ...]:
    """Each localization of the ``qweyl_grid(e, n)`` algebras, n = 2, 3,
    with the systems after each adjoined inverse."""
    out = []
    for n in (2, 3):
        for a in qweyl_grid(e, n):
            out += [a.system()] + [ext for ext, _ in localization_chain(a)]
            assert localize_to_mixed(a).gmap.target.letters == out[-1].letters
    return tuple(out)


def targets(e_values=(1, 4, 12)):
    return st.one_of(st.sampled_from(corpus_systems()),
                     *(st.sampled_from(localizations(e)) for e in e_values))


def word_over(s: ReductionSystem, max_len: int = 3):
    return st.lists(st.integers(0, len(s.letters) - 1), max_size=max_len).map(tuple)


def unit(s: ReductionSystem, draw) -> Coeff:
    g = s.group
    degree = (draw(st.integers(0, g.torsion_order - 1)),
              *(draw(st.integers(-1, 1)) for _ in range(g.rank)))
    return Coeff.of_degree(s.ring, degree).mul(
        Coeff.from_rational(s.ring, draw(st.sampled_from((1, -1, 2)))))


# -- generator maps with single-word images -----------------------------------


@st.composite
def one_word_maps(draw):
    """A map of 2-3 generators to scaled words of a target.  Each pair gets
    the relation its reduced images satisfy (when degrees give one), a
    random scalar twist, the Weyl weight 0 or 1, or an Eulerian relation."""
    s = draw(targets())
    k = draw(st.integers(2, 3))
    names = tuple(f"s{i}" for i in range(k))
    images = {name: Element.from_word(s.ring, draw(word_over(s)), unit(s, draw))
              for name in names}
    reduced = [s.normal_form(images[name]) for name in names]
    g = s.group
    items = []
    for i in range(k):
        for j in range(i + 1, k):
            kind = draw(st.sampled_from(("match", "match", "twist", "zero", "one", "w")))
            rel = None
            if kind == "match" and all(len(x.terms) == 1 for x in (reduced[i], reduced[j])):
                (t,), (u,) = reduced[i].terms, reduced[j].terms
                nu = s.exchange_degree(u, t)
                if nu is not None:  # s^-1 of degree nu
                    rel = g.inverse_degree(nu)
            if rel is None and kind in ("match", "twist"):
                rel = (draw(st.integers(0, g.torsion_order - 1)),
                       *(draw(st.integers(-2, 2)) for _ in range(g.rank)))
            if kind == "w":
                rel = None
            elif rel is None:
                rel = 0 if kind == "zero" else 1
            items.append((i, j, rel))
    return GeneratorMap(Presentation.from_items(g, names, items), s, images)


def pair_defects(gmap: GeneratorMap):
    """(twist degree, a, b, reduced defect) for each source pair, on
    reduced images."""
    src, sys = gmap.source, gmap.target
    images = [sys.normal_form(gmap.images[name]) for name in src.gens]
    for i in range(src.n):
        for j in range(i + 1, src.n):
            a, b = images[i], images[j]
            yield (src.twist(i, j), a, b,
                   sys.normal_form(b.concat(a).sub(exchanged(src, i, j, a, b))))


@settings(max_examples=150, deadline=None)
@given(one_word_maps())
def test_degree_settled_pairs_match_reductions(gmap):
    """The verdict and defect are the raw-image reference's; a pair settled
    by degrees has a zero defect; a single-word pair that the table covers,
    whose defect is zero, is settled."""
    assert verify_homomorphism(gmap) == raw_image_verify(gmap)
    sys = gmap.target
    for d, a, b, defect in pair_defects(gmap):
        settled = _settled_by_degrees(sys, d, a, b)
        if settled:
            assert defect.is_zero()
        elif defect.is_zero() and len(a.terms) == len(b.terms) == 1 and d is not None:
            (t,), (u,) = a.terms, b.terms
            if sys.exchange_degree(u, t) is not None:
                assert sys._reduce_terms({t + u: Coeff.one(sys.ring)}).is_zero()


@pytest.mark.parametrize("outcome", ("settled", "failing"))
def test_one_word_maps_reach_both_outcomes(outcome):
    """Some map has a pair settled by degrees; some map fails on a pair
    whose degrees disagree."""
    def settled(gmap):
        return any(_settled_by_degrees(gmap.target, d, a, b)
                   for d, a, b, _ in pair_defects(gmap))

    def fails_on_degrees(gmap):
        res = verify_homomorphism(gmap)
        if not isinstance(res, FailingRelation):
            return False
        src, sys = gmap.source, gmap.target
        i, j = (src.gens.index(name) for name in res.pair)
        a, b = (sys.normal_form(gmap.images[src.gens[k]]) for k in (i, j))
        return (len(a.terms) == len(b.terms) == 1
                and src.degrees[i][j] is not None
                and sys.exchange_degree(*b.terms, *a.terms) is not None)

    find(one_word_maps(), settled if outcome == "settled" else fails_on_degrees,
         settings=settings(database=None, max_examples=500, phases=[Phase.generate]))


def test_localization_map_pairs_are_settled():
    """The all-quantum localizations over a root of order 4 or 12 check by
    degrees every single-word pair that the twist table covers (all but
    those meeting a letter and its inverse)."""
    for e in (4, 12):
        for a in qweyl_grid(e, 3):
            if len(a.quantum_indices) < 3:
                continue
            res = localize_to_mixed(a)
            sys = res.gmap.target
            settled = [_settled_by_degrees(sys, d, x, y)
                       for d, x, y, _ in pair_defects(res.gmap)
                       if len(x.terms) == len(y.terms) == 1
                       and sys.exchange_degree(*y.terms, *x.terms) is not None]
            assert len(settled) > res.relations_checked // 2 and all(settled)


def test_torsion_degrees_sum_mod_e():
    """In y x = zeta^3 x y (zeta of order 4), y y x = zeta^6 x y y, and
    zeta^6 = zeta^2: the map a -> x, b -> y y of a b = zeta^2 b a is
    settled by degrees."""
    g = ScalarGroup(4, (), "zeta")
    target = certified_system(Presentation.from_items(g, ("x", "y"), [(0, 1, (1,))]))
    source = Presentation.from_items(g, ("a", "b"), [(0, 1, (2,))])
    gmap = GeneratorMap(source, target, {"a": target.word("x"), "b": target.word("y", "y")})
    (d, a, b, defect), = pair_defects(gmap)
    assert defect.is_zero() and _settled_by_degrees(target, d, a, b)
    assert verify_homomorphism(gmap) == raw_image_verify(gmap)


# -- letters that move through a normal form ----------------------------------


@st.composite
def systems_with_elements(draw):
    s = draw(targets((4, 12)))
    terms = {draw(word_over(s)): unit(s, draw) for _ in range(draw(st.integers(1, 3)))}
    return s, Element(s.ring, terms)


def moving_letters(s: ReductionSystem, nf: Element):
    """The letters g for which ``commutation_with_generators`` skips the
    reduction of nf g."""
    letters = {h for t in nf.terms for h in t}
    for g in range(len(s.letters)):
        degrees = {s._word_degree(g, t) for t in nf.terms}
        if len(degrees) == 1 and None not in degrees and s._moves_through(g, letters):
            yield g


@settings(max_examples=150, deadline=None)
@given(systems_with_elements())
def test_letter_moving_through_a_normal_form_keeps_its_terms(case):
    s, el = case
    nf = s._reduce_terms(el.terms)
    for g in moving_letters(s, nf):
        product = s._reduce_terms(nf.concat(Element.from_word(s.ring, (g,))).terms)
        assert len(product.terms) == len(nf.terms)
    assert_same_commutation(s, el)


def test_letters_move_through_normal_forms_of_several_terms():
    find(systems_with_elements(),
         lambda case: len((nf := case[0]._reduce_terms(case[1].terms)).terms) > 1
         and any(moving_letters(case[0], nf)),
         settings=settings(database=None, max_examples=500, phases=[Phase.generate]))


# -- the left criterion with a letter Z above u --------------------------------


@settings(max_examples=300, deadline=None)
@given(graded_systems(hows=("appended",)))
def test_turned_round_overlaps_match_two_sided(case):
    assert_graded_case(case)


@pytest.mark.parametrize("verdict", (Confluent, Failing))
def test_turned_round_overlaps_reach_both_verdicts(verdict):
    """Some system with an overlap u v w settled on the left by turning
    round a one-letter word of v w above u (the Z) has the verdict."""
    find_graded(lambda s: any(s._graded(w, r2, True) and any(len(t) == 1 and t[0] > w[0]
                                                             for t in s.right_side(w[1:]).terms)
                              for w, _, r2 in s._candidates(0, full=True)),
                verdict, hows=("appended",))
