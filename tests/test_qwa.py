import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qwalg.presentation import (Additive, Eulerian, Multiplicative, Presentation,
                                Verified, certified_system, verify_homomorphism)
from qwalg.qwa import (ParseError, format_presentation, parse_document,
                       parse_generator_map, parse_presentation, parse_scalar_literal)
from qwalg.scalars import GroupMismatch, ScalarGroup

from support import LL2_TARGET, S22_TEXT, T21_SOURCE

def test_parse_s22():
    p = parse_presentation(S22_TEXT)
    assert p.gens == ("x1", "y1", "x2", "y2")
    assert len(p.rels) == 6
    q = p.group.free_gen("q")
    assert p.rel(p.index("x1"), p.index("y1")) == Additive(1)
    assert p.rel(p.index("y1"), p.index("y2")) == Multiplicative(q)


def test_parse_empty_relations():
    p = parse_presentation("generators a, b, c\n")
    assert p.n == 3 and p.rels == {}
    assert p.rel(0, 2) == Additive(0)


def test_weight_one_normalized():
    p = parse_presentation("scalars { free q }\ngenerators x, y\n"
                           "relations {\n  x y = 1 * y x\n}\n")
    assert p.rels == {}


def test_eulerian_relation():
    p = parse_presentation("generators y, w\nrelations {\n  [w, y] = y\n}\n")
    rel = p.rels[(0, 1)]
    assert isinstance(rel, Eulerian) and rel.w_index == p.index("w")


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


@pytest.mark.parametrize("text,line,words", BAD_TEXTS,
                         ids=[words for *_, words in BAD_TEXTS])
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


def test_minus_one_requires_even_order():
    text = "generators a, b\nrelations {\n  a b = -1 * b a\n}\n"
    with pytest.raises(ParseError):
        parse_presentation(text)  # no scalars block: torsion order 1
    ok = "scalars { root zeta : 2 }\n" + text
    p = parse_presentation(ok)
    assert p.rels[(0, 1)] == Multiplicative(p.group.scalar(torsion=1))


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
    assert doc.presentation.rel(y1, y2) == Multiplicative(g.free_gen("q"))
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
    items = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = draw(st.sampled_from(((i, j), (j, i))))
            kind = draw(st.sampled_from(("none", "additive", "multiplicative", "eulerian")))
            if kind == "additive":
                items.append((a, b, Additive(draw(st.integers(-3, 3)))))
            elif kind == "multiplicative":
                free = tuple(draw(st.integers(-3, 3)) for _ in range(m))
                items.append((a, b, Multiplicative(group.scalar(draw(st.integers(0, e - 1)), free))))
            elif kind == "eulerian":
                items.append((a, b, Eulerian(a)))
    return Presentation.build(group, gens, items)


@settings(max_examples=300, deadline=None)
@given(presentations())
def test_format_parse_round_trip(p):
    doc = parse_document(format_presentation(p))
    assert doc.group == p.group
    assert doc.presentation == p


def test_torsion_without_a_root_symbol_is_not_printed():
    g = ScalarGroup(4)
    p = Presentation.build(g, ("a", "b"), [(0, 1, Multiplicative(g.scalar(1)))])
    with pytest.raises(ValueError, match="^cannot print a torsion group without a named root$"):
        format_presentation(p)
