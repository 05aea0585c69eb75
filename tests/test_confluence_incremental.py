"""Re-certification of extended systems agrees with a full diamond-lemma scan.

Every system that adjoin_inverse / invert_generator returns is rebuilt from
its letters and rules and certified again from scratch; a system extended by
a rule that breaks confluence must report the same Failing witness as a
fresh full scan.  The indexed ambiguity scan yields exactly what a
brute-force scan over every rule pair and position yields, in the same
order.  Resolving an ambiguity by one reduction of a - b gives the verdict
and Failing witness of the two-sided reference, which reduces a and b
apart and compares them.
"""
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qwalg.cli import main
from qwalg.cyclo import Coeff
from qwalg.presentation import (Additive, Eulerian, Multiplicative, Presentation,
                                PresentationError, certified_system,
                                system_from_presentation)
from qwalg.qwa import ParseError, parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed
from qwalg.rewrite import Confluent, Element, Failing, ReductionSystem, Rule
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
    for known in sorted({0, 1, len(s.rules) // 2, len(s.rules)}):
        got = list(s._ambiguities(known))
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
    for word, a, b in s._ambiguities(0):
        a, b = s._reduce(a), s._reduce(b)
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
