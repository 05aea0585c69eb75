"""Re-certification of extended systems agrees with a full diamond-lemma scan.

Every system that adjoin_inverse / invert_generator returns is rebuilt from
its letters and rules and certified again from scratch; a system extended by
a rule that breaks confluence must report the same Failing witness as a
fresh full scan.  The indexed ambiguity scan yields exactly what a
brute-force scan over every rule pair and position yields, in the same
order.  Resolving an ambiguity by one reduction of a - b gives the verdict
and Failing witness of the two-sided reference, which reduces a and b
apart and compares them.  Overlaps settled by twist degrees (moving the
first letter right or the last letter left) and scalars read off the twist
table agree with the same references, on drawn presentations around a hub
letter, also with a letter appended or inverted, and on the steps of drawn
localizations, whose base system is built with the twist table read off
its rules; a presentation and its opposite reading get the same verdict,
with the two sides of the degree criterion swapped.  The candidate scan
leaves the same unsettled overlaps, in the same order, as the full scan;
extensions built in place equal fully validated systems; reduction by
length buckets matches a deglex-key reducer term for term and in order.
"""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from qwalg.cyclo import Coeff, CoeffRing
from qwalg.presentation import (Presentation, certified_system, exchanged,
                                system_from_presentation)
from qwalg.qwa import ParseError, parse_presentation
from qwalg.qweyl import localize_to_mixed
from qwalg.rewrite import Confluent, Element, Failing, ReductionSystem, Rule, RuleError, deglex_key
from qwalg.scalars import ScalarGroup

from support import (CORPUS, TRIANGLE, assert_candidate_parity, assert_graded_case,
                     assert_matches_two_sided, assert_same_commutation, brute_force_ambiguities,
                     cli_output, corpus, corpus_bases, corpus_systems, find_graded, fresh,
                     graded_systems, hub_presentations, identification_rules, inverted_systems,
                     localization_chain, qweyl_algebras, qweyl_grid, record_extensions,
                     reference_commutation, run, run_corpus)


@pytest.fixture
def extensions(monkeypatch):
    """Every system returned by adjoin_inverse or invert_generator."""
    return record_extensions(monkeypatch, lambda parent, ext: ext)


def assert_all_confluent(built):
    assert built
    for ext in built:
        assert ext.certified
        assert isinstance(fresh(ext).check_confluence(), Confluent)


@pytest.mark.parametrize("e", (1, 2, 3, 4, 12))
def test_localization_extensions_pass_full_scan(e, extensions):
    for n in (1, 2, 3, 4):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert_all_confluent(extensions)


def test_corpus_inversion_chains_pass_full_scan(extensions):
    run_corpus(("embed", "mixed"), ("qweyl", "localize"))
    for a, b in (("s22q", "s22q2"), ("mixed_weyl_F", "mixed_weyl_Fprime"),
                 ("weyl_a11", "weyl_triangle"), ("quantum_plane", "torus_d2")):
        run(["equiv", corpus(f"{a}.qwa"), corpus(f"{b}.qwa")])
    assert_all_confluent(extensions)


SPACE = """\
scalars { free q }
generators a, b, c
relations {
  b a = q * a b
  c a = q * a c
  c b = q * b c
}
"""


def broken_extension():
    """The certified quantum 3-space plus the rule b c -> a a.

    The new rule already splits the old ambiguity c b a (q a^3 against
    q^3 a^3), which the full scan meets before any ambiguity of the new rule.
    """
    s = certified_system(parse_presentation(SPACE))
    ring = s.ring
    a, b, c = (s.index(x) for x in "abc")
    rules = s.rules + [Rule((b, c), Element(ring, {(a, a): Coeff.one(ring)}))]
    return s, ReductionSystem(s.group, s.letters, rules)


def test_failing_extension_reports_full_scan_witness():
    parent, ext = broken_extension()
    expected = fresh(ext).check_confluence()
    assert isinstance(expected, Failing)
    verdict = ext.check_confluence(known=len(parent.rules))
    assert isinstance(verdict, Failing)
    assert verdict.word == expected.word
    assert verdict.normal_form_1 == expected.normal_form_1
    assert verdict.normal_form_2 == expected.normal_form_2
    assert not ext.certified


def test_witness_word_by_letter_names():
    _, ext = broken_extension()
    verdict = ext.check_confluence()
    assert ext.format_word(verdict.word) == "c b a"


def assert_same_ambiguities(s: ReductionSystem):
    """The full scan yields the brute-force words; the one-step results
    built from its two rule right sides are the brute-force ones."""
    for known in sorted({0, 1, len(s.rules) // 2, len(s.rules)}):
        got = [(w, *s._one_step(w)) for w, _, _ in s._candidates(known, full=True)]
        expected = list(brute_force_ambiguities(s, known))
        assert [w for w, _, _ in got] == [w for w, _, _ in expected]
        assert all(a == ea and b == eb for (_, a, b), (_, ea, eb) in zip(got, expected))


def test_ambiguities_match_brute_force_on_corpus():
    assert len(corpus_bases()) >= 10
    for s in corpus_bases():
        assert_same_ambiguities(s)


@pytest.mark.parametrize("e", (1, 4))
def test_ambiguities_match_brute_force_on_localizations(e, extensions):
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert extensions
    for ext in extensions:
        assert_same_ambiguities(ext)


# -- one pass per ambiguity against the two-sided reference -------------------


@pytest.fixture
def extensions_with_known(monkeypatch):
    """Each extension with the number of its leading rules that form a
    certified system: the parent's rules."""
    return record_extensions(monkeypatch, lambda parent, ext: (ext, len(parent.rules)))


def test_one_pass_matches_two_sided_on_corpus():
    assert len(corpus_bases()) >= 10
    for s in corpus_bases():
        assert isinstance(assert_matches_two_sided(s), Confluent)


def relation_choices(group):
    """Weights and twist degrees of a pair, or None for [g_i, g_j] = g_j (the
    Eulerian relation counted by the pair's first generator): the k of an
    item (i, j, k) of ``Presentation.from_items``."""
    q, minus_one = group.free_gen("q"), group.scalar(torsion=group.torsion_order // 2)
    return [-1, 0, 1, 2] + [s.degree() for s in (q, q.inv(), q.pow(2), minus_one)] + [None]


def test_one_pass_matches_two_sided_on_random_presentations():
    """Every triangle over the relation choices (among them the inadmissible
    ones, whose Failing witnesses must agree) and random 4-5-generator
    presentations."""
    group = ScalarGroup(2, ("q",), "zeta")
    choices = relation_choices(group)
    verdicts = set()
    for combo in itertools.product(choices, repeat=3):
        items = [(i, j, rel) for (i, j), rel in zip(((0, 1), (0, 2), (1, 2)), combo)]
        p = Presentation.from_items(group, ("g1", "g2", "g3"), items)
        verdicts.add(type(assert_matches_two_sided(system_from_presentation(p))))
    rng = random.Random(14)
    for _ in range(60):
        n = rng.choice((4, 5))
        items = [(i, j, rng.choice(choices)) for i in range(n) for j in range(i + 1, n)]
        p = Presentation.from_items(group, tuple(f"g{k}" for k in range(n)), items)
        verdicts.add(type(assert_matches_two_sided(system_from_presentation(p))))
    assert verdicts == {Confluent, Failing}


@pytest.mark.parametrize("e", (1, 4, 12))
def test_one_pass_matches_two_sided_on_localizations(e, extensions_with_known):
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert extensions_with_known
    for ext, known in extensions_with_known:
        assert isinstance(assert_matches_two_sided(ext, known), Confluent)


def random_extension(parent: ReductionSystem, rng: random.Random) -> ReductionSystem:
    """The parent plus one rule u v -> (a few deglex-smaller words) on a left
    side u <= v that no rule of a presentation uses."""
    ring, k = parent.ring, len(parent.letters)
    lhs = tuple(sorted(rng.sample(range(k), 2) if rng.random() < 0.7 else [rng.randrange(k)] * 2))
    smaller = [(i, j) for i in range(k) for j in range(k) if (i, j) < lhs]
    smaller += [(i,) for i in range(k)] + [()]
    rhs = {w: Coeff.from_rational(ring, rng.choice((-2, -1, 1, 3)))
           for w in rng.sample(smaller, min(len(smaller), rng.randint(1, 3)))}
    return ReductionSystem(parent.group, parent.letters,
                           parent.rules + [Rule(lhs, Element(ring, rhs))])


def test_one_pass_matches_two_sided_on_broken_extensions():
    parent, ext = broken_extension()
    assert isinstance(assert_matches_two_sided(ext, len(parent.rules)), Failing)
    rng = random.Random(7)
    verdicts = set()
    for parent in corpus_bases():
        for _ in range(4):
            ext = random_extension(parent, rng)
            verdicts.add(type(assert_matches_two_sided(ext, len(parent.rules))))
    assert Failing in verdicts


words = st.lists(st.integers(0, 2), max_size=4).map(tuple)
elements = st.dictionaries(words, st.integers(-3, 3).filter(bool), max_size=6)


@settings(max_examples=60, deadline=None)
@given(elements, elements)
def test_reduce_is_linear_without_certification(a, b):
    """Reduction is the same linear map on a system that is neither certified
    nor confluent, so reducing a - b is reducing a and b apart."""
    _, s = broken_extension()
    assert not s.certified
    ring = s.ring
    a, b = (Element(ring, {w: Coeff.from_rational(ring, c) for w, c in x.items()})
            for x in (a, b))
    assert s._reduce_terms(a.sub(b).terms) == s._reduce_terms(a.terms).sub(s._reduce_terms(b.terms))


# -- overlaps settled by twist degrees ----------------------------------------


@settings(max_examples=80, deadline=None)
@given(graded_systems(hubs=("largest",), hows=("presentation",)))
def test_settled_overlaps_match_two_sided_on_twisted_presentations(case):
    assert_graded_case(case)


@settings(max_examples=80, deadline=None)
@given(graded_systems(hubs=("smallest",), hows=("presentation",)))
def test_mirrored_overlaps_match_two_sided(case):
    assert_graded_case(case)


@settings(max_examples=60, deadline=None)
@given(graded_systems(hows=("localized",)))
def test_localized_overlaps_match_two_sided(case):
    assert_graded_case(case)


def settled_on(left: bool):
    """Whether the degree criterion settles some overlap on the given side
    and not on the other."""
    return lambda s: any((s._graded(w, r2, True), s._graded(w, r1, False)) == (left, not left)
                         for w, r1, r2 in s._candidates(0, full=True))


@pytest.mark.parametrize("verdict", (Confluent, Failing))
def test_twisted_presentations_reach_both_verdicts(verdict):
    find_graded(settled_on(True), verdict, hubs=("largest",), hows=("presentation",))


@pytest.mark.parametrize("verdict", (Confluent, Failing))
def test_mirrored_presentations_reach_both_verdicts(verdict):
    find_graded(settled_on(False), verdict, hubs=("smallest",), hows=("presentation",))


def test_mirrored_presentations_settle_overlaps_by_the_mirror():
    find_graded(settled_on(False), hubs=("smallest",), hows=("presentation",))


def opposite(s: ReductionSystem) -> ReductionSystem:
    """The system of the opposite algebra: every word reversed and letter i
    renamed n - 1 - i.  Valid for presentation systems, whose only
    two-letter right-side word is the swapped pair."""
    n = len(s.letters)

    def op(w: tuple) -> tuple:
        return tuple(n - 1 - i for i in reversed(w))
    rules = [Rule(op(r.lhs), Element(s.ring, {op(t): c
                                              for t, c in s.right_side(r.lhs).terms.items()}))
             for r in s.rules]
    return ReductionSystem(s.group, s.letters[::-1], rules)


@settings(max_examples=80, deadline=None)
@given(hub_presentations())
def test_opposite_reading_swaps_the_sides(p):
    """A presentation and its opposite reading get the same verdict; on a
    confluent one, the criterion settles u v w on the left exactly when it
    settles w' v' u' on the right in the opposite reading, and the other
    way round."""
    s = system_from_presentation(p)
    op, n = opposite(s), len(s.letters)
    verdict = s.check_confluence()
    assert type(op.check_confluence()) is type(verdict)
    if isinstance(verdict, Confluent):
        for (u, v, w), r1, r2 in s._candidates(0, full=True):
            word = (n - 1 - w, n - 1 - v, n - 1 - u)
            assert s._graded((u, v, w), r2, True) == op._graded(word, op._rhs[word[:2]], False)
            assert s._graded((u, v, w), r1, False) == op._graded(word, op._rhs[word[1:]], True)


BAD2 = """\
scalars { root zeta : 4 }
generators b, c, a
relations {
  a b = zeta * b a
  a c = zeta * c a
  b c = c b + 1
}
"""


def test_torsion_only_inhomogeneous_triangle_fails():
    """In the overlap a c b, the rule c b -> b c - 1 has the word b c of
    degree zeta^2, that of c b, and the empty word of degree 0: they agree
    in the free part and differ only in the torsion."""
    s = system_from_presentation(parse_presentation(BAD2))
    verdict = assert_matches_two_sided(s)
    assert isinstance(verdict, Failing)
    assert s.format_word(verdict.word) == "a c b"


def test_letter_outside_the_twist_table_is_reduced():
    """d twists a and b with degrees summing to 0, and the rule b a -> a b + c
    holds c, which d does not twist: the overlap d b a must be reduced, and
    it fails (its two sides differ by a)."""
    group = ScalarGroup(1, ("q",))
    ring = CoeffRing(group)
    one, q = Coeff.one(ring), Coeff.of_degree(ring, (0, 1))
    a, b, c, d = range(4)
    rules = [Rule((b, a), Element(ring, {(a, b): one, (c,): one})),
             Rule((d, a), Element(ring, {(a, d): q})),
             Rule((d, b), Element(ring, {(b, d): q.inv()})),
             Rule((d, c), Element(ring, {(c, d): one, (a,): one}))]
    s = ReductionSystem(group, ("a", "b", "c", "d"), rules)
    assert isinstance(assert_matches_two_sided(s), Failing)


@pytest.mark.parametrize("e", (1, 4, 12))
def test_identification_rule_with_z_on_the_right(e, extensions_with_known):
    """Overlaps u v w whose rule v w is a localization's identification hold
    Z, the largest letter, on the right.  When u twists v, w and every
    letter of that rule (Z turned round through its rule Z u), they are
    settled by degrees; both sides still reduce alike, and every extension
    agrees with the reference."""
    for n in (2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    seen = 0
    for ext, known in extensions_with_known:
        assert isinstance(assert_matches_two_sided(ext, known), Confluent)
        tw = ext._twists
        for rule in identification_rules(ext):
            z = max(w[0] for w in rule.rhs.terms if len(w) == 1)
            assert z > max(rule.lhs)
            letters = set(rule.lhs) | {h for t in rule.rhs.terms for h in t}
            for word, r1, r2 in ext._candidates(0, full=True):
                u = word[0]
                if word[1:] != rule.lhs or u >= z:
                    continue
                if all((u, h) in tw or (h, u) in tw for h in letters) and \
                        (u, word[1]) in tw and (u, word[2]) in tw:
                    assert ext._graded(word, r2, True)
                    a, b = ext._one_step(word)
                    assert ext._reduce_terms(a.terms) == ext._reduce_terms(b.terms)
                    seen += 1
    assert seen


@settings(max_examples=40, deadline=None)
@given(qweyl_algebras())
def test_quantum_weyl_base_carries_the_twist_table_of_its_rules(a):
    """The table the base system is built with is the one read off its
    rules, and each normal scalar of the localization is that of z_i in the
    system it was adjoined to, by the engine and by the reference."""
    s = a.system()
    assert s._twists == fresh(s)._twists
    res = localize_to_mixed(a)
    assert list(res.normal_scalars) == a.quantum_indices
    parents = [s] + [ext for ext, _ in localization_chain(a)]
    for i, s in zip(a.quantum_indices, parents):
        z = a.z_element(s, i)
        assert res.normal_scalars[i] == s.commutation_with_generators(z)
        assert res.normal_scalars[i] == reference_commutation(s, z)


def test_extension_carries_the_twist_table(extensions):
    """The table an extension carries is the one read off its rules."""
    for e in (1, 4, 12):
        for a in qweyl_grid(e, 3):
            localize_to_mixed(a)
    for path in ("weyl_a11", "mixed_weyl_F", "quantum_plane"):
        run(["embed", "mixed", corpus(f"{path}.qwa")])
    assert extensions
    for ext in extensions:
        assert ext._twists == fresh(ext)._twists


BAD2 = """\
scalars { root zeta : 4 }
generators b, c, a
relations {
  a b = zeta * b a
  a c = zeta * c a
  b c = c b + 1
}
"""


def test_presentation_systems_state_the_twist_table_of_their_rules():
    """A presentation's system states each twist rule by the degree of its
    scalar: on every corpus presentation, and on the generator inversions
    of those, which restate the parent's twist rules from its table, the
    table equals the one read off the rules, and each rule is the one
    ``exchanged`` reads off its relation."""
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            p = parse_presentation(f.read_text())
        except ParseError:
            continue
        s = system_from_presentation(p)
        assert s._twists == fresh(s)._twists
        gens = [s.word(name) for name in s.letters]
        for j in range(p.n):
            for i in range(j):
                assert s.right_side((j, i)) == exchanged(p, i, j, gens[i], gens[j])
    for s in corpus_systems():
        assert s._twists == fresh(s)._twists


def test_the_torsion_triangle_fails_with_the_table_of_its_rules():
    """The triangle a b = zeta b a, a c = zeta c a, b c = c b + 1 over Z/4
    has the twists a b and a c of degree zeta (read as a b -> zeta b a) in
    its table and fails at a c b.  No table can be passed beside the rules,
    so none can claim the degree 0 that would settle that overlap."""
    s = system_from_presentation(parse_presentation(BAD2))
    b, c, a = range(3)
    assert s._twists == fresh(s)._twists == {(a, b): (1,), (a, c): (1,)}
    verdict = s.check_confluence()
    assert isinstance(verdict, Failing) and verdict.word == (a, c, b)
    with pytest.raises(TypeError):
        ReductionSystem(s.group, s.letters, s.rules, {lhs: (0,) for lhs in s._rhs})


# -- normality read off the twist table ----------------------------------------


@pytest.mark.parametrize("e", (1, 4, 12))
def test_commutation_matches_reference_on_localizations(e):
    """Every z_i, scaled, and the adjoined letters and their inverses, in the
    base system and in every intermediate extension."""
    normal = 0
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            for s in [a.system()] + [ext for ext, _ in localization_chain(a)]:
                two = Coeff.from_rational(s.ring, 2)
                els = [a.z_element(s, k) for k in range(n)]
                els += [el.scale(two) for el in els[:1]]
                els += [s.word(name) for name in s.letters if name.startswith("z")]
                els += [s.word(name).concat(els[-1]) for name in s.letters[-1:]]
                for el in els:
                    normal += assert_same_commutation(s, el) is not None
    assert normal


def test_commutation_matches_reference_on_corpus():
    """Random elements (mostly not normal), letters, scaled letters and
    scaled constants of the corpus systems and their inverted generators."""
    rng = random.Random(15)
    outcomes = set()
    for base in corpus_bases():
        for s in inverted_systems(base):
            ring, k = s.ring, len(s.letters)
            c = Coeff.from_rational(ring, rng.choice((-3, 2, 5)))
            els = [s.one().scale(c)] + [s.word(name).scale(x) for name in s.letters
                                         for x in (Coeff.one(ring), c)]
            for _ in range(6):
                words = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 3)))
                         for _ in range(rng.randint(1, 3))]
                els.append(Element(ring, {w: Coeff.from_rational(ring, rng.choice((-1, 1, 2)))
                                          for w in words}))
            for el in els:
                outcomes.add(assert_same_commutation(s, el) is None)
    assert outcomes == {True, False}


def test_commutation_of_a_nilpotent_letter():
    """a a -> 0: the letter a twists itself by 1, yet a a is zero, so a is
    not normal."""
    group = ScalarGroup()
    ring = CoeffRing(group)
    s = ReductionSystem(group, ("a", "b"), [Rule((0, 0), Element(ring)),
                                            Rule((1, 0), Element.from_word(ring, (0, 1)))])
    assert isinstance(s.check_confluence(), Confluent)
    assert assert_same_commutation(s, s.word("a")) is None
    assert assert_same_commutation(s, s.word("b")) is not None


# -- the candidate scan against the full scan ---------------------------------


def test_candidate_scan_matches_full_scan_on_corpus():
    assert len(corpus_bases()) >= 10
    for s in corpus_bases():
        for known in sorted({0, 1, len(s.rules) // 2, len(s.rules)}):
            assert_candidate_parity(s, known)


@pytest.mark.parametrize("e", (1, 4, 12))
def test_candidate_scan_matches_full_scan_on_localizations(e, extensions_with_known):
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
            assert_candidate_parity(a.system(), 0)
    assert extensions_with_known
    for ext, known in extensions_with_known:
        assert_candidate_parity(ext, known)
        assert_candidate_parity(ext, 0)


@settings(max_examples=60, deadline=None)
@given(hub_presentations())
def test_candidate_scan_matches_full_scan_on_twisted_presentations(p):
    s = system_from_presentation(p)
    for known in (0, len(s.rules) // 2):
        assert_candidate_parity(s, known)


def test_overlap_with_a_pair_without_rule_is_visited():
    """c b and b a are twist rules but c a has no rule at all: the overlap
    c b a is a candidate, and it fails (b c a against c a b)."""
    group = ScalarGroup(1, ("q",))
    ring = CoeffRing(group)
    q = Coeff.of_degree(ring, (0, 1))
    a, b, c = range(3)
    ba, cb = (Rule((b, a), Element(ring, {(a, b): q})),
              Rule((c, b), Element(ring, {(b, c): q})))
    # Either rule may be the known one: the new one finds the overlap.
    for rules in ([ba, cb], [cb, ba]):
        s = ReductionSystem(group, ("a", "b", "c"), rules)
        for known in (0, 1):
            assert [w for w, _, _ in s._candidates(known)] == [(c, b, a)]
            assert_candidate_parity(s, known)
        verdict = assert_matches_two_sided(s, 1)
        assert isinstance(verdict, Failing) and verdict.word == (c, b, a)


# -- overlaps settled by moving the last letter to the left --------------------


def test_mirror_triangle_is_inadmissible():
    """In the overlap c b a, a is twisted by b and c with degrees summing to
    zeta^2, but the constant of c b -> b c + 1 has degree 0."""
    text = TRIANGLE.format(ca="zeta")
    s = system_from_presentation(parse_presentation(text))
    verdict = assert_matches_two_sided(s)
    assert isinstance(verdict, Failing)
    assert s.format_word(verdict.word) == "c b a"
    assert not s._graded(verdict.word, s._rhs[verdict.word[:2]], False)


def test_mirror_triangle_twin_is_settled_without_a_reduction():
    """With c a = zeta^3 a c the degrees of a sum to 0: the overlap c b a is
    settled on the right alone, by moving a to the left."""
    s = system_from_presentation(parse_presentation(TRIANGLE.format(ca="zeta^3")))
    [(word, r1, r2)] = list(s._candidates(0, full=True))
    assert s.format_word(word) == "c b a"
    assert not s._graded(word, r2, True) and s._graded(word, r1, False)
    assert list(s._unsettled(0)) == []
    assert isinstance(assert_matches_two_sided(s), Confluent)


def test_mirror_triangle_through_the_cli(tmp_path):
    for ca, rc, lines in (("zeta", 1, ("confluent=false", "witness=(b,c,a)")),
                          ("zeta^3", 0, ("confluent=true",))):
        path = tmp_path / f"triangle_{ca.replace('^', '')}.qwa"
        path.write_text(TRIANGLE.format(ca=ca))
        code, out, _ = cli_output(["check", str(path)])
        assert code == rc
        for line in lines:
            assert line in out.splitlines()


# -- extensions built in place -------------------------------------------------


def assert_same_as_fully_validated(ext: ReductionSystem):
    full = ReductionSystem(ext.group, ext.letters, ext.rules)
    assert full.rules == ext.rules
    assert [full.right_side(lhs) for lhs in full._rhs] == \
        [ext.right_side(lhs) for lhs in ext._rhs] and list(full._rhs) == list(ext._rhs)
    assert full._twists == ext._twists
    assert full._pos == ext._pos
    assert full._loose_first == ext._loose_first
    assert full._loose_second == ext._loose_second


def test_extensions_match_fully_validated_systems(extensions):
    for e in (1, 4, 12):
        for n in (1, 2, 3):
            for a in qweyl_grid(e, n):
                localize_to_mixed(a)
    run_corpus(("embed", "mixed"))
    for base in corpus_bases():
        list(inverted_systems(base))
    # Adjoined Z, Z^-1 pairs are built in place, inverted generators are
    # renumbered and built afresh.
    assert {ext.letters[-1].endswith("^-1") for ext in extensions} == {True, False}
    for ext in extensions:
        assert_same_as_fully_validated(ext)


def test_extension_in_place_refuses_bad_rules():
    """A reused parent still refuses a repeated left side, a right side that
    is not smaller and a left side of the wrong length, and is left as it
    was."""
    parent = certified_system(parse_presentation(SPACE))
    ring, rules = parent.ring, list(parent.rules)
    a, b, c = (parent.index(x) for x in "abc")
    one = Coeff.one(ring)
    for bad in (Rule((b, a), Element(ring, {(a, b): one})),
                Rule((a, b), Element(ring, {(b, a): one})),
                Rule((a, b), (0, 1)),
                Rule((a, b, c), Element(ring, {(a,): one}))):
        with pytest.raises(RuleError):
            parent._extended((), [bad])
        assert parent.rules == rules and len(parent._rhs) == len(rules)
        assert parent._twists == fresh(parent)._twists
    with pytest.raises(RuleError):
        parent._extended(("d",), [Rule((3, a), Element.from_word(ring, (a, 3))),
                                  Rule((3, a), Element.from_word(ring, (a,)))])
    assert parent.letters == ("a", "b", "c") and parent.rules == rules


# -- pending words by length against the deglex-key reducer --------------------


def reference_reduce(s: ReductionSystem, el: Element) -> Element:
    """Reduction picking each next word with max(pending, key=deglex_key)."""
    pending = dict(el.terms)
    done = {}
    while pending:
        w = max(pending, key=deglex_key)
        c = pending.pop(w)
        for pos in range(len(w) - 1):
            if (w[pos], w[pos + 1]) in s._rhs:
                rhs = s.right_side((w[pos], w[pos + 1]))
                break
        else:
            done[w] = c
            continue
        for rw, rc in rhs.terms.items():
            v = w[:pos] + rw + w[pos + 2:]
            total = pending[v].add(c.mul(rc)) if v in pending else c.mul(rc)
            if total.is_zero():
                pending.pop(v, None)
            else:
                pending[v] = total
    return Element.of_terms(s.ring, done)


def assert_same_reduction(s: ReductionSystem, rng: random.Random, count: int):
    ring, k = s.ring, len(s.letters)
    for _ in range(count):
        words = [tuple(rng.randrange(k) for _ in range(rng.randint(0, 5)))
                 for _ in range(rng.randint(1, 6))]
        el = Element(ring, {w: Coeff.from_rational(ring, rng.choice((-2, -1, 1, 3)))
                            for w in words})
        got, expected = s._reduce_terms(el.terms), reference_reduce(s, el)
        assert got == expected
        assert list(got.terms) == list(expected.terms)


def test_reduction_order_matches_deglex_key_reducer():
    rng = random.Random(16)
    systems = list(corpus_bases())
    for e in (1, 4):
        for a in qweyl_grid(e, 3):
            systems += [a.system()] + [ext for ext, _ in localization_chain(a)]
    assert len(systems) > 20
    for s in systems:
        assert_same_reduction(s, rng, 8)
