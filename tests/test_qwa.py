import pytest

from qwalg.presentation import Additive, Eulerian, Multiplicative
from qwalg.qwa import (ParseError, format_presentation, parse_document,
                       parse_presentation, parse_scalar_literal)
from qwalg.scalars import GroupMismatch, ScalarGroup

S22_TEXT = """\
# the two-pair mixed algebra with weight q
scalars { free q }
generators x1, y1, x2, y2
relations {
  x1 y1 = y1 x1 + 1
  y1 y2 = q * y2 y1
  x1 x2 = q * x2 x1
  x1 y2 = q^-1 * y2 x1
  x2 y1 = q * y1 x2
  x2 y2 = y2 x2 + 1
}
"""


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


def test_scalar_literal():
    g = ScalarGroup(4, ("q", "p"), "zeta")
    s = parse_scalar_literal(g, "zeta^2 * q^-1 * p^3")
    assert s.torsion == 2 and s.free == (-1, 3)
    assert parse_scalar_literal(g, "1").is_one()
    assert parse_scalar_literal(g, "-1") == g.minus_one()
    with pytest.raises(ParseError):
        parse_scalar_literal(ScalarGroup(3, (), "w"), "-1")


def test_minus_one_requires_even_order():
    text = "generators a, b\nrelations {\n  a b = -1 * b a\n}\n"
    with pytest.raises(ParseError):
        parse_presentation(text)  # no scalars block: torsion order 1
    ok = "scalars { root zeta : 2 }\n" + text
    p = parse_presentation(ok)
    assert p.rels[(0, 1)] == Multiplicative(p.group.minus_one())


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
