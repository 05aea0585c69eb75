import json
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qwalg.presentation import Presentation, Verified, certified_system, verify_homomorphism
from qwalg.cli import _load
from qwalg.mixed import eulerian_presentation, reduce_to_canonical
from qwalg.qwa import (ParseError, format_group_block, format_presentation, parse_document,
                       parse_generator_map, parse_presentation, parse_scalar_literal)
from qwalg.scalars import GroupMismatch, ScalarGroup, format_scalar
from qwalg.torus import QuantumTorus

from support import CORPUS, LL2_TARGET, S22_TEXT, T21_SOURCE, relation_items, weights

PRINTED = Path(__file__).with_name("presentation_bytes.json")


def test_parse_s22():
    p = parse_presentation(S22_TEXT)
    assert p.gens == ("x1", "y1", "x2", "y2")
    q, qinv = (0, 1), (0, -1)  # degrees of q and q^-1
    assert p.weyl == [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
    assert p.degrees == [[None, None, q, qinv], [None, None, qinv, q],
                         [qinv, q, None, None], [q, qinv, None, None]]
    assert p.eulerian == {}


def test_parse_empty_relations():
    p = parse_presentation("generators a, b, c\n")
    assert p.n == 3 and p == Presentation.from_items(p.group, p.gens, [])
    assert p.twist(0, 2) == (0,)


def test_weight_one_normalized():
    p = parse_presentation("scalars { free q }\ngenerators x, y\n"
                           "relations {\n  x y = 1 * y x\n}\n")
    assert p == Presentation.from_items(p.group, p.gens, [])


def test_eulerian_relation():
    p = parse_presentation("generators y, w\nrelations {\n  [w, y] = y\n}\n")
    assert p.eulerian == {(0, 1): p.index("w")}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_presentation("generators a, b\nrelations {\n  a c = c a + 1\n}\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_presentation("generators a\nrelations {\n  a a = a a + 1\n}\n")
    with pytest.raises(ParseError):
        parse_presentation("generators a, b\nrelations {\n"
                           "  a b = b a + 1\n  a b = b a + 2\n}\n")
    with pytest.raises(ParseError):
        parse_presentation("generators a, b\nrelations {\n  a b = q * b a\n}\n")
    with pytest.raises(ParseError):
        parse_presentation("nonsense here\n")


BAD_TEXTS = [
    # (text, line of the error, words of the message)
    ("generatorsx, y\n", 1, "unrecognized line"),
    ("generators a\ngenerators b\n", 2, "duplicate generators line"),
    ("scalars {\n  free q\n  free p, 2x\n}\ngenerators a\n", 3, "bad free symbol"),
    ("scalars { root z : 2 }\nscalars { free q }\n", 2, "duplicate scalars block"),
    ("generators a, b\nrelations {\n  a b = b a + 1 ; a b = b a + 2\n}\n", 3,
     "duplicate relation"),
    ("generators a\nrelations {\n  a a = a a + 1\n", 2, "unterminated"),
    ("qweyl {\n  n = 1\n  q = (1)\n  n = 1\n  Lambda = [[1]]\n}\n", 4,
     "duplicate qweyl clause"),
    ("qweyl {\n  n = 1\n  q = (1)\n}\n", 1, "missing 'Lambda'"),
    # Relation lines: one row per error of the three shapes, trailing junk
    # after each shape included, so that every anchor of the relation
    # pattern is pinned.
    ("generators a, a\n", 1, "duplicate generator name"),
    ("generators w, y, z\nrelations {\n  [w, y] = z\n}\n", 3,
     "must repeat its second generator, got 'z'"),
    ("generators a, b\nrelations {\n\n  a b = a b + 1\n}\n", 4,
     "sides of a Weyl relation"),
    ("scalars { free q }\ngenerators a, b\nrelations {\n  a b = q * a b\n}\n", 4,
     "sides of a quantum relation"),
    ("generators a, b\nrelations {\n  a b c\n}\n", 3, "unrecognized relation 'a b c'"),
    ("generators w, y, z\nrelations {\n  [w, y] = y z\n}\n", 3,
     "unrecognized relation '[w, y] = y z'"),
    ("generators x, y, z\nrelations {\n  x y = y x + 1 z\n}\n", 3,
     "unrecognized relation 'x y = y x + 1 z'"),
    ("scalars { free q }\ngenerators x, y, z\nrelations {\n  x y = q * y x z\n}\n", 4,
     "unrecognized relation 'x y = q * y x z'"),
    ("generators x, y\nrelations {\n  x x y = y x + 1\n}\n", 3,
     "unrecognized relation 'x x y = y x + 1'"),
    ("generators x, y\nrelations {\n  (x y = y x + 1\n}\n", 3,
     "unrecognized relation '(x y = y x + 1'"),
    ("generators a, b\nrelations {\n  a c = c a + 1\n}\n", 3, "undeclared generator 'c'"),
    ("generators a, b\nrelations {\n  d c = c d + 1\n}\n", 3, "undeclared generator 'd'"),
    ("generators a, b\nrelations {\n  [c, a] = a\n}\n", 3, "undeclared generator 'c'"),
    ("generators a, b\nrelations {\n  [b, b] = b\n}\n", 3, "self-relation on 'b'"),
    ("generators a, b\nrelations {\n  a b = q * b a\n}\n", 3,
     "undeclared scalar symbol 'q'"),
    ("scalars { free q }\ngenerators a, b\nrelations {\n  a b = q^x * b a\n}\n", 4,
     "bad scalar factor 'q^x'"),
    ("scalars { free q }\ngenerators a, b, c, d\nrelations {\n  a b = c d + 1 * b a\n}\n",
     4, "bad scalar factor 'c d + 1'"),
    ("scalars { root w : 3 }\ngenerators a, b\nrelations {\n  a b = -1 * b a\n}\n", 4,
     "-1 requires an even root-of-unity order"),
    ("generators a, b, c\nrelations {\n  a b = b a + 1\n  [c, a] = a\n  b a = a b + 2\n}\n",
     5, "duplicate relation for pair (a, b)"),
]


def case_ids(cases):
    """Each case is named by the words it expects; a later case expecting the
    same words as an earlier one is told apart by its place in the list."""
    seen = set()
    ids = []
    for k, (*_, words) in enumerate(cases):
        ids.append(words if words not in seen else f"{words} (case {k})")
        seen.add(words)
    return ids


@pytest.mark.parametrize("text,line,words", BAD_TEXTS, ids=case_ids(BAD_TEXTS))
def test_parse_errors_name_their_line(text, line, words):
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert err.value.line == line and words in err.value.message


def test_readme_examples_parse():
    """Every bare fenced block of README.md is a .qwa file or a generator map;
    the map is checked against the presentations it is written for."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [body for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", readme,
                                                re.S | re.M) if not info]
    maps = [b for b in blocks if b.startswith("map")]
    docs = [parse_document(b) for b in blocks if not b.startswith("map")]
    assert len(maps) == 1 and {d.qweyl is None for d in docs} == {True, False}
    gmap = parse_generator_map(maps[0], parse_presentation(T21_SOURCE),
                               certified_system(parse_presentation(LL2_TARGET)))
    assert isinstance(verify_homomorphism(gmap), Verified)


def test_scalar_literal():
    g = ScalarGroup(4, ("q", "p"), "zeta")
    s = parse_scalar_literal(g, "zeta^2 * q^-1 * p^3")
    assert s.torsion == 2 and s.free == (-1, 3)
    assert parse_scalar_literal(g, "1").is_one()
    assert parse_scalar_literal(g, "-1") == g.scalar(torsion=2)
    with pytest.raises(ParseError):
        parse_scalar_literal(ScalarGroup(3, (), "w"), "-1")


FACTOR = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


def regex_literal(group, text):
    """Reference: a scalar literal read with one regular expression per
    factor, as the parser did before it split factors at '^'."""
    if not text.strip():
        return "empty scalar literal"
    torsion, free = 0, [0] * group.rank
    for factor in (f.strip() for f in text.split("*")):
        if factor in ("1", "-1"):
            torsion += group.torsion_order // 2 if factor == "-1" else 0
            continue
        m = FACTOR.match(factor)
        if not m:
            return f"bad scalar factor {factor!r}"
        name, exp = m.group(1), int(m.group(2) or 1)
        if name == group.root_symbol:
            torsion += exp
        elif name in group.free_index:
            free[group.free_index[name]] += exp
        else:
            return f"undeclared scalar symbol {name!r}"
    return group.scalar(torsion, tuple(free))


def test_scalar_literal_matches_the_regex_reading():
    """Pinned factors past the syntax's edges, then 3000 seeded strings over
    its alphabet, read alike by the parser and the regex reference."""
    g = ScalarGroup(4, ("q", "p_2"), "zeta")
    texts = ["q^+2", "q ^2", "q^", "q^-", "q^--1", "q^\u0663", "\u00e9", "_", "q^2^3",
             "1^2", "zeta^-7", "q^0003 * p_2", "r^2", "r^x", "2q", " * q", "Q", "q^-0"]
    rng = random.Random(5)
    alphabet = ["q", "p_2", "zeta", "r", "^", "-", "2", "0", "1", " ", "*", "_", "x"]
    texts += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 9)))
              for _ in range(3000)]
    for text in texts:
        try:
            got = parse_scalar_literal(g, text)
        except ParseError as exc:
            got = exc.message
        assert got == regex_literal(g, text), text


def test_minus_one_requires_even_order():
    text = "generators a, b\nrelations {\n  a b = -1 * b a\n}\n"
    with pytest.raises(ParseError):
        parse_presentation(text)  # no scalars block: torsion order 1
    ok = "scalars { root zeta : 2 }\n" + text
    p = parse_presentation(ok)
    assert p.degrees[0][1] == p.group.scalar(torsion=1).degree()


def test_printed_presentations_are_pinned():
    """Every corpus presentation, the canonical presentation it reduces to
    and that algebra's Eulerian presentation print byte for byte as pinned;
    the Eulerian corpus file has no reduction."""
    pinned = json.loads(PRINTED.read_text())
    printed = {}
    for f in sorted(CORPUS.glob("*.qwa")):
        p = parse_document(f.read_text()).presentation
        if p is None:
            continue
        printed[f.stem] = {"presentation": format_presentation(p)}
        if not p.eulerian:
            algebra, _ = reduce_to_canonical(p)
            printed[f.stem]["canonical"] = format_presentation(algebra.to_presentation())
            printed[f.stem]["eulerian"] = format_presentation(eulerian_presentation(algebra))
    assert printed == pinned


def test_roundtrip_fixed_point():
    text = format_presentation(parse_presentation(S22_TEXT))
    again = format_presentation(parse_presentation(text))
    assert text == again
    assert parse_presentation(text) == parse_presentation(S22_TEXT)


def test_qweyl_block():
    doc = parse_document("""\
scalars { free q, l }
qweyl {
  n = 2
  q = (1, q)
  Lambda = [[1, l],[l^-1, 1]]
}
""")
    spec = doc.qweyl
    assert spec.n == 2
    assert spec.q[0].is_one() and spec.q[1] == doc.group.free_gen("q")
    assert spec.lam[0][1] == doc.group.free_gen("l")


def test_qweyl_roundtrip():
    from qwalg.qwa import format_qweyl
    text = """\
scalars { free q, l }
qweyl {
  n = 2
  q = (1, q)
  Lambda = [[1, l],[l^-1, 1]]
}
"""
    spec = parse_document(text).qweyl
    printed = format_qweyl(spec)
    again = parse_document(printed).qweyl
    assert (again.n, again.q, again.lam) == (spec.n, spec.q, spec.lam)
    assert format_qweyl(again) == printed


def test_qweyl_block_errors():
    with pytest.raises(ParseError):
        parse_document("qweyl {\n  n = 2\n  q = (1)\n  Lambda = [[1]]\n}\n")
    with pytest.raises(ParseError):
        parse_document("qweyl {\n  n = 1\n  q = (1)\n}\n")


def test_parse_into_given_group():
    g = ScalarGroup(4, ("p", "q"), "zeta")
    doc = parse_document(S22_TEXT, g)
    assert doc.group == g == doc.presentation.group
    y1, y2 = doc.presentation.index("y1"), doc.presentation.index("y2")
    assert doc.presentation.degrees[y1][y2] == g.free_gen("q").degree()
    for text in ("scalars { free r }\ngenerators a\n",
                 "scalars { root w : 4 }\ngenerators a\n",
                 "scalars { root zeta : 2 }\ngenerators a\n"):
        with pytest.raises(GroupMismatch):
            parse_document(text, g)


NAMES = ("x", "y", "w", "x1", "y2", "t_3", "Gen", "a10")


@st.composite
def presentations(draw):
    """A presentation over Z/e x Z^m: each pair gets no relation or one of the
    three kinds, given in a random orientation."""
    e = draw(st.sampled_from((1, 2, 3, 4, 6, 12)))
    m = draw(st.integers(0, 2))
    group = ScalarGroup(e, ("q", "p")[:m], "zeta" if e > 1 else None)
    gens = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=True))
    items = relation_items(draw, group, len(gens),
                           ("additive", "multiplicative", "eulerian"), weights(group))
    return Presentation.from_items(group, gens, items)


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_format_parse_round_trip(p):
    doc = parse_document(format_presentation(p))
    assert doc.group == p.group
    assert doc.presentation == p


@st.composite
def torus_files(draw):
    """The text of a torus file: quantum relations in either orientation, with
    the weights 1 and -1 among them, torsion spelled past [0, e) at times,
    and Weyl lines with weight 0; and the drawn weight matrix Lambda."""
    e = draw(st.sampled_from((1, 2, 4, 6)))
    m = draw(st.integers(0, 2))
    group = ScalarGroup(e, ("q", "p")[:m], "zeta" if e > 1 else None)
    gens = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=6, unique=True))
    signs = [group.one()] + ([group.scalar(e // 2)] if e % 2 == 0 else [])
    weight = st.one_of(st.sampled_from(signs), weights(group))
    items = relation_items(draw, group, len(gens), ("multiplicative", "commuting"), weight)
    lam = [[group.one()] * len(gens) for _ in gens]
    lines = []
    for a, b, k in items:
        ga, gb = gens[a], gens[b]
        if k:  # the degree of a quantum relation; 0 says the pair commutes
            w = group.scalar(k[0], k[1:])
            lam[a][b], lam[b][a] = w, w.inv()
            lit = format_scalar(w)
            if e > 1 and draw(st.booleans()):
                lit += f" * zeta^{e * draw(st.integers(-2, 2))}"
            lines.append(f"  {ga} {gb} = {lit} * {gb} {ga}")
        else:
            lines.append(f"  {ga} {gb} = {gb} {ga} + 0")
    text = "\n".join([format_group_block(group) or "", "generators " + ", ".join(gens),
                      "relations {", *lines, "}", ""])
    return group, lam, text


@settings(max_examples=300, deadline=None)
@given(torus_files())
def test_torus_file_is_read_into_the_exponents_of_its_weights(drawn):
    """The CLI reads a torus file straight into exponent matrices; they are
    those of the drawn Lambda, and their degrees are the twists of the
    presentation the file holds."""
    group, lam, text = drawn
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "torus.qwa"
        path.write_text(text)
        t, = _load([str(path)], ["torus"])
    assert t.group == group
    assert t.exponents == QuantumTorus(group, lam).exponents
    p = parse_presentation(text)
    assert [[p.twist(i, j) for j in range(p.n)] for i in range(p.n)] == t.degrees()


def test_torsion_without_a_root_symbol_is_not_printed():
    g = ScalarGroup(4)
    p = Presentation.from_items(g, ("a", "b"), [(0, 1, (1,))])
    with pytest.raises(ValueError, match="^cannot print a torsion group without a named root$"):
        format_presentation(p)
