"""Re-certification of extended systems agrees with a full diamond-lemma scan.

Every system that adjoin_inverse / invert_generator returns is rebuilt from
its letters and rules and certified again from scratch; a system extended by
a rule that breaks confluence must report the same Failing witness as a
fresh full scan.  The indexed ambiguity scan yields exactly what a
brute-force scan over every rule pair and position yields, in the same
order.
"""
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qwalg.cli import main
from qwalg.cyclo import Coeff
from qwalg.presentation import certified_system
from qwalg.qwa import ParseError, parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed
from qwalg.rewrite import Confluent, Element, Failing, ReductionSystem, Rule
from qwalg.scalars import ScalarGroup

CORPUS = Path(__file__).resolve().parents[1] / "src" / "qwalg" / "corpus"


def fresh(s: ReductionSystem) -> ReductionSystem:
    return ReductionSystem(s.group, s.letters, s.rules)


@pytest.fixture
def extensions(monkeypatch):
    """Every system returned by adjoin_inverse or invert_generator."""
    built = []
    for name in ("adjoin_inverse", "invert_generator"):
        def wrapped(self, *args, _orig=getattr(ReductionSystem, name), **kwargs):
            ext, label = _orig(self, *args, **kwargs)
            built.append(ext)
            return ext, label
        monkeypatch.setattr(ReductionSystem, name, wrapped)
    return built


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

