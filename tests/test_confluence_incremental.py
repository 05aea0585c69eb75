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
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from qwalg.cli import main
from qwalg.cyclo import Coeff, CoeffRing, coeff_to_scalar
from qwalg.presentation import (Additive, Eulerian, Multiplicative, Presentation,
                                PresentationError, certified_system,
                                system_from_presentation)
from qwalg.qwa import ParseError, parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed
from qwalg.rewrite import (Confluent, Element, Failing, NotNormalError, ReductionSystem,
                           Rule, RuleError, deglex_key)
from qwalg.scalars import ScalarGroup

CORPUS = Path(__file__).resolve().parents[1] / "src" / "qwalg" / "corpus"


def fresh(s: ReductionSystem) -> ReductionSystem:
    return ReductionSystem(s.group, s.letters, s.rules)


def record_extensions(monkeypatch, entry):
    """entry(parent, ext) for every system ext that adjoin_inverse or
    invert_generator returns."""
    built = []
    for name in ("adjoin_inverse", "invert_generator"):
        def wrapped(self, *args, _orig=getattr(ReductionSystem, name), **kwargs):
            ext, label = _orig(self, *args, **kwargs)
            built.append(entry(self, ext))
            return ext, label
        monkeypatch.setattr(ReductionSystem, name, wrapped)
    return built


@pytest.fixture
def extensions(monkeypatch):
    """Every system returned by adjoin_inverse or invert_generator."""
    return record_extensions(monkeypatch, lambda parent, ext: ext)


def assert_all_confluent(built):
    assert built
    for ext in built:
        assert ext.certified
        assert isinstance(fresh(ext).check_confluence(), Confluent)


def qweyl_grid(e: int, n: int):
    """Quantum Weyl algebras over Z/e x Z<q>: every count of quantum indices,
    in a few positions, with twisted Lambda."""
    g = ScalarGroup(e, ("q",), "zeta" if e > 1 else None)
    q, zeta, one = g.free_gen("q"), g.scalar(1), g.one()
    params = (q, zeta.mul(q), q.inv(), zeta.mul(q).pow(2))
    lam = [[one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = zeta.pow(i + 2 * j).mul(q.pow((i + j) % 3 - 1))
            lam[j][i] = lam[i][j].inv()
    patterns = {tuple(range(k)) for k in range(n + 1)}
    patterns |= {tuple(range(n - k, n)) for k in range(n)}
    for quantum in sorted(patterns):
        qs = tuple(params[i % len(params)] if i in quantum else one
                   for i in range(n))
        yield QuantumWeylAlgebra(g, n, qs, lam)


@pytest.mark.parametrize("e", (1, 2, 3, 4, 12))
def test_localization_extensions_pass_full_scan(e, extensions):
    for n in (1, 2, 3, 4):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert_all_confluent(extensions)


def run(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def test_corpus_inversion_chains_pass_full_scan(extensions):
    files = sorted(CORPUS.glob("*.qwa"))
    for f in files:
        for cmd in (["embed", "mixed"], ["qweyl", "localize"]):
            run(cmd + [str(f)])
    for a, b in (("s22q", "s22q2"), ("mixed_weyl_F", "mixed_weyl_Fprime"),
                 ("weyl_a11", "weyl_triangle"), ("quantum_plane", "torus_d2")):
        run(["equiv", str(CORPUS / f"{a}.qwa"), str(CORPUS / f"{b}.qwa")])
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


def brute_force_ambiguities(s: ReductionSystem, known: int):
    """Every rule r2 tried at every position p of every left side l1."""
    for i, r1 in enumerate(s.rules):
        l1 = r1.lhs
        for r2 in s.rules[known if i < known else 0:]:
            l2 = r2.lhs
            for p in range(len(l1)):
                if (p == 0 and len(l2) >= len(l1)) or l1[p:p + len(l2)] != l2[:len(l1) - p]:
                    continue
                word = l1 + l2[len(l1) - p:]
                a = Element(s.ring, {w + word[len(l1):]: c for w, c in r1.rhs.terms.items()})
                b = Element(s.ring, {word[:p] + w + word[p + len(l2):]: c
                                     for w, c in r2.rhs.terms.items()})
                yield word, a, b


def assert_same_ambiguities(s: ReductionSystem):
    """The scan yields the brute-force words; the one-step results built
    from its two rule right sides are the brute-force ones."""
    for known in sorted({0, 1, len(s.rules) // 2, len(s.rules)}):
        got = [(w, *s._one_step(w, r1, r2)) for w, r1, r2 in s._ambiguities(known)]
        expected = list(brute_force_ambiguities(s, known))
        assert [w for w, _, _ in got] == [w for w, _, _ in expected]
        assert all(a == ea and b == eb for (_, a, b), (_, ea, eb) in zip(got, expected))


def test_ambiguities_match_brute_force_on_corpus():
    checked = 0
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            s = certified_system(parse_presentation(f.read_text()))
        except ParseError:
            continue  # a quantum Weyl file, not a presentation
        assert_same_ambiguities(s)
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("e", (1, 4))
def test_ambiguities_match_brute_force_on_localizations(e, extensions):
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert extensions
    for ext in extensions:
        assert_same_ambiguities(ext)


# -- one pass per ambiguity against the two-sided reference -------------------


def two_sided(s: ReductionSystem) -> Confluent | Failing:
    """The reference resolution: reduce both sides of every ambiguity apart
    and compare the two normal forms."""
    for word, r1, r2 in s._ambiguities(0):
        a, b = (s._reduce(x) for x in s._one_step(word, r1, r2))
        if a != b:
            return Failing(word, a, b)
    return Confluent()


def assert_matches_two_sided(s: ReductionSystem, known: int = 0):
    """The full scan and the incremental scan from ``known`` agree with the
    reference: the same verdict, witness word and both normal forms."""
    expected = two_sided(fresh(s))
    assert fresh(s).check_confluence() == expected
    if known:
        assert fresh(s).check_confluence(known) == expected
    return expected


@pytest.fixture
def extensions_with_known(monkeypatch):
    """Each extension with the number of its leading rules that form a
    certified system: the parent's rules."""
    return record_extensions(monkeypatch, lambda parent, ext: (ext, len(parent.rules)))


def test_one_pass_matches_two_sided_on_corpus():
    checked = 0
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            p = parse_presentation(f.read_text())
        except ParseError:
            continue  # a quantum Weyl file, not a presentation
        assert isinstance(assert_matches_two_sided(system_from_presentation(p)), Confluent)
        checked += 1
    assert checked >= 10


def relation_choices(group):
    """Weights and scalars of a pair, or "w" for [g_i, g_j] = g_j (the
    Eulerian relation counted by the pair's first generator)."""
    q = group.free_gen("q")
    return ([Additive(w) for w in (-1, 0, 1, 2)]
            + [Multiplicative(s) for s in (q, q.inv(), q.pow(2), group.minus_one())]
            + ["w"])


def item(i: int, j: int, rel):
    return (i, j, Eulerian(i) if rel == "w" else rel)


def test_one_pass_matches_two_sided_on_random_presentations():
    """Every triangle over the relation choices (among them the inadmissible
    ones, whose Failing witnesses must agree) and random 4-5-generator
    presentations."""
    group = ScalarGroup(2, ("q",), "zeta")
    choices = relation_choices(group)
    verdicts = set()
    for combo in itertools.product(choices, repeat=3):
        items = [item(i, j, rel) for (i, j), rel in zip(((0, 1), (0, 2), (1, 2)), combo)]
        p = Presentation.build(group, ("g1", "g2", "g3"), items)
        verdicts.add(type(assert_matches_two_sided(system_from_presentation(p))))
    rng = random.Random(14)
    for _ in range(60):
        n = rng.choice((4, 5))
        items = [item(i, j, rng.choice(choices)) for i in range(n) for j in range(i + 1, n)]
        p = Presentation.build(group, tuple(f"g{k}" for k in range(n)), items)
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
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            parent = certified_system(parse_presentation(f.read_text()))
        except (ParseError, PresentationError):
            continue
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
    assert s._reduce(a.sub(b)) == s._reduce(a).sub(s._reduce(b))


# -- overlaps settled by twist degrees ----------------------------------------


@st.composite
def hub_presentations(draw, hubs=("largest", "smallest")) -> Presentation:
    """The hub, the largest generator or the smallest (one of ``hubs``),
    twists each other one by zeta^a q^b (b over one or two free symbols);
    among the rest only one pair has a relation: a weight, a scalar or "w"."""
    e, m = draw(st.sampled_from((3, 4, 6, 12))), draw(st.integers(1, 2))
    group = ScalarGroup(e, ("q", "p")[:m], "zeta")
    n = draw(st.integers(3, 5))
    exps = st.tuples(st.integers(0, e - 1), st.tuples(*[st.integers(-1, 1)] * m))
    hub = n - 1 if draw(st.sampled_from(hubs)) == "largest" else 0
    others = [i for i in range(n) if i != hub]
    items = [(i, hub, Multiplicative(group.scalar(*draw(exps)))) for i in others]
    pair = tuple(sorted(draw(st.lists(st.sampled_from(others), min_size=2, max_size=2,
                                      unique=True))))
    rel = draw(st.one_of(st.integers(-2, 2).filter(bool), st.just("w"), exps))
    rel = (Additive(rel) if isinstance(rel, int) else Eulerian(pair[0]) if rel == "w"
           else Multiplicative(group.scalar(*rel)))
    return Presentation.build(group, tuple(f"g{k}" for k in range(n)), items + [(*pair, rel)])


def appended_letter(draw, base: ReductionSystem) -> ReductionSystem:
    """The base with a letter Z appended: Z twists each letter h by the
    degree of v w on h (when the table gives one) or by a random degree, and
    an ascending pair v w gets the rule v w -> c Z (+ d, + a smaller word)."""
    g, ring, n = base.group, base.ring, len(base.letters)
    z = n
    v, w = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    rules = list(base.rules)
    for h in range(n):
        nu = base.exchange_degree((v, w), (h,))
        if nu is None or draw(st.booleans()):
            nu = (draw(st.integers(0, g.torsion_order - 1)),
                  *(draw(st.integers(-1, 1)) for _ in range(g.rank)))
        mu = g.scalar(nu[0], nu[1:])  # Z h = mu h Z
        rules.append(Rule((z, h), Element.from_word(ring, (h, z), Coeff.from_scalar(ring, mu))))
    rhs = {(z,): Coeff.from_rational(ring, draw(st.sampled_from((1, -1, 2))))}
    if draw(st.booleans()):
        rhs[()] = Coeff.from_rational(ring, draw(st.sampled_from((1, -1))))
    if draw(st.booleans()):
        smaller = [(a, b) for a in range(v) for b in range(z + 1)] + [(h,) for h in range(z)]
        rhs[draw(st.sampled_from(smaller))] = Coeff.one(ring)
    rules.append(Rule((v, w), Element(ring, rhs)))
    return ReductionSystem(g, base.letters + ("Z",), rules)


@st.composite
def qweyl_algebras(draw, min_quantum: int = 0) -> QuantumWeylAlgebra:
    """A quantum Weyl algebra over Z/e x Z<q, p>, e in {1, 2, 3, 4, 6, 12},
    with n <= 5, any set of at least ``min_quantum`` quantum indices, and
    drawn q_i and Lambda."""
    e = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    g = ScalarGroup(e, ("q", "p"), "zeta" if e > 1 else None)
    n = draw(st.integers(1, 5))
    quantum = draw(st.sets(st.integers(0, n - 1), min_size=min_quantum))
    scalars = st.builds(lambda t, a, b: g.scalar(t, (a, b)), st.integers(0, e - 1),
                        st.integers(-1, 1), st.integers(-1, 1))
    qs = tuple(draw(scalars.filter(lambda s: not s.is_one())) if i in quantum else g.one()
               for i in range(n))
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(scalars)
            lam[j][i] = lam[i][j].inv()
    return QuantumWeylAlgebra(g, n, qs, lam)


@st.composite
def localization_steps(draw):
    """(extension, rule count of its parent) for one z_i that the
    localization of a drawn quantum Weyl algebra inverts."""
    a = draw(qweyl_algebras(min_quantum=1))
    s, steps = a.system(), []
    for i in a.quantum_indices:
        ext, _ = s.adjoin_inverse(a.z_element(s, i), f"z{i+1}^-1")
        steps.append((ext, len(s.rules)))
        s = ext
    return draw(st.sampled_from(steps))


@st.composite
def graded_systems(draw, hubs=("largest", "smallest"),
                   hows=("presentation", "appended", "inverted", "localized")):
    """(system, rule count of a certified parent, or 0): a hub
    presentation's system; or that system with a letter Z appended; or,
    when it is confluent, its extension by the inverse of a letter (the hub
    always inverts); or a step of a drawn localization.  ``hubs`` and
    ``hows`` narrow the draw."""
    how = draw(st.sampled_from(hows))
    if how == "localized":
        return draw(localization_steps())
    s = system_from_presentation(draw(hub_presentations(hubs)))
    if how == "appended":
        return appended_letter(draw, s), 0
    if how == "inverted" and isinstance(s.check_confluence(), Confluent):
        inverted = list(inverted_systems(s))[1:]
        assert inverted  # the hub twists every other letter
        return draw(st.sampled_from(inverted)), len(s.rules)
    return s, 0


def assert_graded_case(case):
    """Every overlap that either side of the degree criterion settles agrees
    with the two-sided reference, and the candidate scan with the full one;
    an extension by an inverse was certified with its overlaps settled by
    construction, so it is confluent: the reference reduces every overlap,
    so each one the certification dropped (by construction, by degrees or
    out of the candidate scan) reduces to zero."""
    s, known = case
    verdict = assert_matches_two_sided(s, known)
    assert isinstance(verdict, Confluent) or not s.certified
    assert_candidate_parity(s, known)


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


def find_graded(condition, verdict=object, **narrow):
    """Some drawn system meets the condition and has the verdict.  Any
    example will do, so the one found is not shrunk."""
    find(graded_systems(**narrow),
         lambda case: condition(case[0]) and isinstance(case[0].check_confluence(), verdict),
         settings=settings(database=None, max_examples=1000, phases=[Phase.generate]))


def settled_on(left: bool):
    """Whether the degree criterion settles some overlap on the given side
    and not on the other."""
    return lambda s: any((s._graded(w, r2, True), s._graded(w, r1, False)) == (left, not left)
                         for w, r1, r2 in s._ambiguities(0))


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
    rules = [Rule(op(r.lhs), Element(s.ring, {op(t): c for t, c in r.rhs.terms.items()}))
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
        for (u, v, w), r1, r2 in s._ambiguities(0):
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
    one, q = Coeff.one(ring), Coeff.from_scalar(ring, group.free_gen("q"))
    a, b, c, d = range(4)
    rules = [Rule((b, a), Element(ring, {(a, b): one, (c,): one})),
             Rule((d, a), Element(ring, {(a, d): q})),
             Rule((d, b), Element(ring, {(b, d): q.inv()})),
             Rule((d, c), Element(ring, {(c, d): one, (a,): one}))]
    s = ReductionSystem(group, ("a", "b", "c", "d"), rules)
    assert isinstance(assert_matches_two_sided(s), Failing)


def identification_rules(s: ReductionSystem):
    """Rules whose left side ascends and whose right side is not 1."""
    return [r for r in s.rules if r.lhs[0] < r.lhs[1] and r.rhs != s.one()]


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
            for word, r1, r2 in ext._ambiguities(0):
                u = word[0]
                if word[1:] != rule.lhs or u >= z:
                    continue
                if all((u, h) in tw or (h, u) in tw for h in letters) and \
                        (u, word[1]) in tw and (u, word[2]) in tw:
                    assert ext._graded(word, r2, True)
                    a, b = ext._one_step(word, r1, r2)
                    assert ext._reduce(a) == ext._reduce(b)
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
    for i in a.quantum_indices:
        z = a.z_element(s, i)
        assert res.normal_scalars[i] == s.commutation_with_generators(z)
        assert res.normal_scalars[i] == reference_commutation(s, z)
        s, _ = s.adjoin_inverse(z, f"z{i+1}^-1")


def test_extension_carries_the_twist_table(extensions):
    """The table an extension carries is the one read off its rules."""
    for e in (1, 4, 12):
        for a in qweyl_grid(e, 3):
            localize_to_mixed(a)
    for path in ("weyl_a11", "mixed_weyl_F", "quantum_plane"):
        run(["embed", "mixed", str(CORPUS / f"{path}.qwa")])
    assert extensions
    for ext in extensions:
        assert ext._twists == fresh(ext)._twists


# -- normality read off the twist table ----------------------------------------


def reference_commutation(s: ReductionSystem, el: Element):
    """Two reductions per letter: nf g and g nf, compared up to a scalar."""
    nf = s._reduce(el)
    if nf.is_zero():
        return None
    out = {}
    for idx, name in enumerate(s.letters):
        g = Element.from_word(s.ring, (idx,))
        a, b = s._reduce(nf.concat(g)), s._reduce(g.concat(nf))
        if set(a.terms) != set(b.terms) or not a.terms:
            return None
        w0 = next(iter(a.terms))
        mu = coeff_to_scalar(a.terms[w0].mul(b.terms[w0].inv()))
        if mu is None or a != b.scale(Coeff.from_scalar(s.ring, mu)):
            return None
        out[name] = mu
    return out


def assert_same_commutation(s: ReductionSystem, el: Element):
    got, expected = s.commutation_with_generators(el), reference_commutation(s, el)
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)
    return got


@pytest.mark.parametrize("e", (1, 4, 12))
def test_commutation_matches_reference_on_localizations(e):
    """Every z_i, scaled, and the adjoined letters and their inverses, in the
    base system and in every intermediate extension."""
    normal = 0
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            s = a.system()
            for i in [None] + a.quantum_indices:
                if i is not None:
                    s, _ = s.adjoin_inverse(a.z_element(s, i), f"z{i+1}^-1")
                two = Coeff.from_rational(s.ring, 2)
                els = [a.z_element(s, k) for k in range(n)]
                els += [el.scale(two) for el in els[:1]]
                els += [s.word(name) for name in s.letters if name.startswith("z")]
                els += [s.word(name).concat(els[-1]) for name in s.letters[-1:]]
                for el in els:
                    normal += assert_same_commutation(s, el) is not None
    assert normal


def inverted_systems(s: ReductionSystem):
    """s and its extension by the inverse of each letter that is normal."""
    yield s
    for name in s.letters:
        try:
            yield s.invert_generator(name)[0]
        except NotNormalError:
            pass


def test_commutation_matches_reference_on_corpus():
    """Random elements (mostly not normal), letters, scaled letters and
    scaled constants of the corpus systems and their inverted generators."""
    rng = random.Random(15)
    outcomes = set()
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            base = certified_system(parse_presentation(f.read_text()))
        except (ParseError, PresentationError):
            continue
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


def unsettled_by_full_scan(s: ReductionSystem, known: int):
    """The full scan with the construction criterion and the degree
    criterion on both sides applied to every overlap."""
    return [(w, r1, r2) for w, r1, r2 in s._ambiguities(known)
            if not (w in s._by_construction or s._graded(w, r2, True) or s._graded(w, r1, False))]


def assert_candidate_parity(s: ReductionSystem, known: int):
    """The candidate scan plus the settle checks leaves the same overlaps,
    in the same order, as the full scan plus the same checks; every overlap
    it skips has its three pairs in the twist table."""
    got = list(s._unsettled(known))
    expected = unsettled_by_full_scan(s, known)
    assert [w for w, _, _ in got] == [w for w, _, _ in expected]
    assert all(r1 is e1 and r2 is e2 for (_, r1, r2), (_, e1, e2) in zip(got, expected))
    visited = {w for w, _, _ in s._candidates(known)}
    for (u, v, w), _, _ in s._ambiguities(known):
        if (u, v, w) not in visited:
            assert {(u, v), (v, w), (u, w)} <= s._twists.keys()


def test_candidate_scan_matches_full_scan_on_corpus():
    checked = 0
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            s = system_from_presentation(parse_presentation(f.read_text()))
        except ParseError:
            continue  # a quantum Weyl file, not a presentation
        for known in sorted({0, 1, len(s.rules) // 2, len(s.rules)}):
            assert_candidate_parity(s, known)
        checked += 1
    assert checked >= 10


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
    q = Coeff.from_scalar(ring, group.free_gen("q"))
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


TRIANGLE = """\
scalars {{ root zeta : 4 }}
generators a, b, c
relations {{
  b a = zeta * a b
  c a = {ca} * a c
  c b = b c + 1
}}
"""


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
    [(word, r1, r2)] = list(s._ambiguities(0))
    assert s.format_word(word) == "c b a"
    assert not s._graded(word, r2, True) and s._graded(word, r1, False)
    assert list(s._unsettled(0)) == []
    assert isinstance(assert_matches_two_sided(s), Confluent)


def test_mirror_triangle_through_the_cli(tmp_path):
    for ca, rc, lines in (("zeta", 1, ("confluent=false", "witness=(b,c,a)")),
                          ("zeta^3", 0, ("confluent=true",))):
        path = tmp_path / f"triangle_{ca.replace('^', '')}.qwa"
        path.write_text(TRIANGLE.format(ca=ca))
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            assert main(["check", str(path)]) == rc
        for line in lines:
            assert line in out.getvalue().splitlines()


# -- extensions built in place -------------------------------------------------


def assert_same_as_fully_validated(ext: ReductionSystem):
    full = ReductionSystem(ext.group, ext.letters, ext.rules)
    assert full.rules == ext.rules
    assert full._rhs == ext._rhs and list(full._rhs) == list(ext._rhs)
    assert full._twists == ext._twists
    assert full._pos == ext._pos
    assert full._loose_first == ext._loose_first
    assert full._loose_second == ext._loose_second


def test_extensions_match_fully_validated_systems(extensions):
    for e in (1, 4, 12):
        for n in (1, 2, 3):
            for a in qweyl_grid(e, n):
                localize_to_mixed(a)
    for f in sorted(CORPUS.glob("*.qwa")):
        run(["embed", "mixed", str(f)])
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            base = certified_system(parse_presentation(f.read_text()))
        except (ParseError, PresentationError):
            continue
        list(inverted_systems(base))
    # Inverses of Z letters and of last generators are built in place,
    # inverses of other generators take the shifting path.
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
                Rule((a, b, c), Element(ring, {(a,): one}))):
        with pytest.raises(RuleError):
            parent._extended((), [bad], {})
        assert parent.rules == rules and len(parent._rhs) == len(rules)
    with pytest.raises(RuleError):
        parent._extended(("d",), [Rule((3, a), Element.from_word(ring, (a, 3))),
                                  Rule((3, a), Element.from_word(ring, (a,)))], {})
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
            rhs = s._rhs.get((w[pos], w[pos + 1]))
            if rhs is not None:
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
        got, expected = s._reduce(el), reference_reduce(s, el)
        assert got == expected
        assert list(got.terms) == list(expected.terms)


def test_reduction_order_matches_deglex_key_reducer():
    rng = random.Random(16)
    systems = []
    for f in sorted(CORPUS.glob("*.qwa")):
        try:
            systems.append(certified_system(parse_presentation(f.read_text())))
        except (ParseError, PresentationError):
            continue
    for e in (1, 4):
        for a in qweyl_grid(e, 3):
            systems.append(a.system())
            s = a.system()
            for i in a.quantum_indices:
                s, _ = s.adjoin_inverse(a.z_element(s, i), f"z{i+1}^-1")
                systems.append(s)
    assert len(systems) > 20
    for s in systems:
        assert_same_reduction(s, rng, 8)
