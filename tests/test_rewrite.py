import random

import pytest

from qwalg.cyclo import Coeff, CoeffRing
from qwalg.presentation import certified_system, system_from_presentation
from qwalg.qwa import _degree, parse_presentation
from qwalg.rewrite import (Confluent, Element, Failing, InverseError,
                           NotCertifiedError, NotNormalError, ReductionSystem,
                           Rule, RuleError)
from qwalg.scalars import ScalarGroup

A1_TEXT = "generators y, x\nrelations {\n  x y = y x + 1\n}\n"
PLANE_TEXT = "scalars { free q }\ngenerators y, x\nrelations {\n  x y = q * y x\n}\n"
S21_TEXT = """\
scalars { free q }
generators y1, y2, x1
relations {
  y1 y2 = q * y2 y1
  x1 y1 = y1 x1 + 1
  x1 y2 = q^-1 * y2 x1
}
"""


def a1():
    return certified_system(parse_presentation(A1_TEXT))


def plane():
    return certified_system(parse_presentation(PLANE_TEXT))


def test_builder_validation():
    g = ScalarGroup()
    ring = CoeffRing(g)
    ok = [Rule((1, 0), Element(ring, {(0, 1): Coeff.one(ring),
                                      (): Coeff.from_rational(ring, 1)}))]
    s = ReductionSystem(g, ("y", "x"), ok)
    assert isinstance(s.check_confluence(), Confluent)
    with pytest.raises(RuleError):
        ReductionSystem(g, ("y", "x"), ok + ok)  # duplicate
    bad = [Rule((1, 0), Element(ring, {(1, 0): Coeff.one(ring)}))]
    with pytest.raises(RuleError):
        ReductionSystem(g, ("y", "x"), bad)  # non-decreasing


def test_normal_form_requires_certification():
    s = system_from_presentation(parse_presentation(A1_TEXT))
    with pytest.raises(NotCertifiedError):
        s.normal_form(s.word("x", "y"))


def test_a1_defining_relation():
    s = a1()
    nf = s.normal_form(s.word("x", "y"))
    assert nf == s.word("y", "x").add(s.one())


def test_a1_x_y_squared():
    # independent oracle: [x, y^n] = n y^(n-1), so x y^2 = y^2 x + 2 y
    s = a1()
    nf = s.normal_form(s.word("x", "y", "y"))
    expected = s.word("y", "y", "x").add(s.word("y").scale(
        Coeff.from_rational(s.ring, 2)))
    assert nf == expected


def test_plane_relation():
    s = plane()
    q = s.group.free_gen("q")
    nf = s.normal_form(s.word("x", "y"))
    assert nf == s.word("y", "x").scale(Coeff.of_degree(s.ring, q.degree()))
    # y * x is already normal
    assert s.normal_form(s.word("y", "x")) == s.word("y", "x")


def test_s21_confluent():
    s = system_from_presentation(parse_presentation(S21_TEXT))
    assert len(s.rules) == 3
    assert isinstance(s.check_confluence(), Confluent)


def test_inadmissible_triangle_fails_with_quantum_defect():
    text = ("scalars { free q }\ngenerators g1, g2, g3\nrelations {\n"
            "  g1 g2 = g2 g1 + 1\n  g1 g3 = q * g3 g1\n  g2 g3 = q * g3 g2\n}\n")
    s = system_from_presentation(parse_presentation(text))
    verdict = s.check_confluence()
    assert isinstance(verdict, Failing)
    diff = verdict.normal_form_1.sub(verdict.normal_form_2)
    assert len(diff.terms) == 1
    ((word, coeff),) = diff.terms.items()
    # the two resolutions differ by (lambda*mu - 1) times one word;
    # here lambda = mu = q^{-1} read toward g3, so the defect is q^{-2} - 1
    q = s.group.free_gen("q")
    unit = Coeff.of_degree(s.ring, q.pow(-2).degree()).sub(Coeff.one(s.ring))
    assert coeff == unit or coeff == unit.neg()


def test_commutative_confluent():
    s = system_from_presentation(parse_presentation("generators a, b, c\n"))
    assert isinstance(s.check_confluence(), Confluent)


def test_multiply_examples():
    s = a1()
    # (yx) * y = y^2 x + y by hand expansion
    left = s.word("y", "x")
    assert s.multiply(left, s.word("y")) == s.word("y", "y", "x").add(s.word("y"))
    el = s.word("y", "x").add(s.one().scale(Coeff.from_rational(s.ring, 3)))
    assert s.multiply(s.one(), el) == el
    assert not el.scale(Coeff.zero(s.ring)).terms
    sp = plane()
    assert sp.multiply(sp.word("y"), sp.word("x")) == sp.word("y", "x")


def test_elements_and_coefficients_are_unhashable():
    """Both compare by value and define no hash."""
    s = a1()
    for value in (s.word("y", "x"), Coeff.one(s.ring)):
        with pytest.raises(TypeError):
            hash(value)


def test_multiply_associative_random():
    rng = random.Random(31)
    systems = [a1(), plane(), certified_system(parse_presentation(S21_TEXT))]
    for s in systems:
        letters = [i for i in range(len(s.letters))]
        for _ in range(400):
            els = []
            for _k in range(3):
                w1 = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 4)))
                w2 = tuple(rng.choice(letters) for _ in range(rng.randrange(0, 3)))
                el = Element(s.ring, {w1: Coeff.from_rational(s.ring, rng.randrange(-3, 4))})
                el = el.add(Element(s.ring, {w2: Coeff.from_rational(s.ring, rng.randrange(-2, 3))}))
                els.append(el)
            a, b, c = els
            assert s.multiply(s.multiply(a, b), c) == s.multiply(a, s.multiply(b, c))


def test_commutation_with_generators():
    s = a1()
    # a central element commutes with scalar 1 everywhere
    central = s.one().scale(Coeff.from_rational(s.ring, 5))
    out = s.commutation_with_generators(central)
    assert out is not None and all(v.is_one() for v in out.values())
    # y against x is not scalar-twisted in the Weyl algebra
    assert s.commutation_with_generators(s.word("y")) is None


def test_adjoin_inverse_of_plain_generator():
    sp = plane()
    ext, label = sp.adjoin_inverse(sp.word("y"), "y^-1")
    assert label in ext.letters
    assert ext.normal_form(ext.word("y", "y^-1")) == ext.one()
    assert ext.normal_form(ext.word("y^-1", "y")) == ext.one()
    # x y = q y x conjugates to x y^-1 = q^-1 y^-1 x
    q = sp.group.free_gen("q")
    nf = ext.normal_form(ext.word("x", "y^-1"))
    assert nf == ext.word("y^-1", "x").scale(Coeff.of_degree(ext.ring, q.inv().degree()))


def test_adjoin_inverse_rejects_weyl_generator():
    s = a1()
    with pytest.raises(NotNormalError):
        s.adjoin_inverse(s.word("x"), "x^-1")


def test_adjoin_inverse_composite():
    # in the q-deformed pair x y = 1 + q y x, the element 1 + (q-1) y x is
    # scalar-normal and invertible
    text = "scalars { free q }\ngenerators y, x\nrelations {\n  x y = y x + 1\n}\n"
    # build the deformed system directly
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    rel = [Rule((1, 0), Element(ring, {(0, 1): q, (): Coeff.one(ring)}))]
    s = ReductionSystem(g, ("y", "x"), rel)
    assert isinstance(s.check_confluence(), Confluent)
    z = Element(ring, {(): Coeff.one(ring), (0, 1): q.sub(Coeff.one(ring))})
    tw = s.commutation_with_generators(z)
    qs = g.free_gen("q")
    assert tw == {"y": qs, "x": qs.inv()}
    ext, label = s.adjoin_inverse(z, "z^-1")
    assert ext.normal_form(z.concat(ext.word(label))) == ext.one()
    assert ext.normal_form(ext.word(label).concat(z)) == ext.one()
    # the localized system keeps exact arithmetic: z^-1 z y = y
    nf = ext.normal_form(ext.word(label).concat(z).concat(ext.word("y")))
    assert nf == ext.word("y")


def test_invert_generator_euler_partner():
    p = parse_presentation("generators y, w\nrelations {\n  [w, y] = y\n}\n")
    s = certified_system(p)
    ext, label = s.invert_generator("y")
    # y^-1 w = w y^-1 + y^-1 (the counting shifts by one through the inverse)
    lhs = ext.normal_form(ext.word("y^-1", "w"))
    rhs = ext.normal_form(ext.word("w", "y^-1").add(ext.word("y^-1")))
    assert lhs == rhs
    with pytest.raises(NotNormalError):
        ext.invert_generator("w")


def test_deglex_termination_guard():
    g = ScalarGroup()
    ring = CoeffRing(g)
    with pytest.raises(RuleError):
        ReductionSystem(g, ("a", "b"),
                        [Rule((1, 0), Element(ring, {(1, 1, 0): Coeff.one(ring)}))])
    with pytest.raises(RuleError):
        ReductionSystem(g, ("a", "b"),
                        [Rule((1, 0), Element(ring, {(1, 0): Coeff.one(ring)}))])


def test_a_twist_rule_stated_by_its_degree():
    """Rule(lhs, d) is the rule lhs -> mu h u for lhs = u h and mu of degree
    d, with the table entry d (torsion mod e), as the rule written out; a
    degree on an ascending or a repeated pair, or on a left side that is
    not two letters, is refused."""
    g = ScalarGroup(4, ("q",), "zeta")
    ring = CoeffRing(g)
    stated = ReductionSystem(g, ("a", "b"), [Rule((1, 0), (5, -2))])
    written = ReductionSystem(g, ("a", "b"), [Rule((1, 0), Element(
        ring, {(0, 1): Coeff.of_degree(ring, (1, -2))}))])
    assert [(r.lhs, stated.right_side(r.lhs)) for r in stated.rules] == \
        [(r.lhs, written.right_side(r.lhs)) for r in written.rules]
    assert stated._twists == written._twists == {(1, 0): (1, -2)}
    for lhs in ((0, 1), (1, 1), (1,), (1, 0, 1)):
        with pytest.raises(RuleError):
            ReductionSystem(g, ("a", "b"), [Rule(lhs, (1, 0))])


def test_left_sides_must_be_two_letters():
    g = ScalarGroup()
    ring = CoeffRing(g)
    a = Element(ring, {(0,): Coeff.one(ring)})
    for lhs in ((1,), (1, 2, 1)):
        with pytest.raises(RuleError, match="not two letters"):
            ReductionSystem(g, ("a", "b", "c"), [Rule(lhs, a)])


def test_repeated_left_side_is_refused():
    """b a -> a b and b a -> 2 a b disagree on b a itself, so a second rule
    for a left side is refused rather than certified."""
    g = ScalarGroup()
    ring = CoeffRing(g)
    ab = Element(ring, {(0, 1): Coeff.one(ring)})
    with pytest.raises(RuleError, match="duplicate leading word"):
        ReductionSystem(g, ("a", "b"),
                        [Rule((1, 0), ab), Rule((1, 0), ab.scale(Coeff.from_rational(ring, 2)))])


def test_identification_letters_are_not_invertible():
    """In x y = q y x, localizing at y x or y y puts y (and x) into the
    identification rule; inverting such a letter is refused by name."""
    for lead, blocked in ((("y", "x"), ("y", "x")), (("y", "y"), ("y",))):
        sp = plane()
        loc, _ = sp.adjoin_inverse(sp.word(*lead), "z^-1")
        for name in blocked:
            with pytest.raises(NotNormalError, match="localization identification"):
                loc.invert_generator(name)
    ext, label = loc.invert_generator("x")  # x is outside the rule y y -> Z
    assert ext.normal_form(ext.word("x", label)) == ext.one()
    with pytest.raises(NotNormalError, match="not two letters"):
        sp.adjoin_inverse(sp.word("y", "y", "y"), "z^-1")


# -- one inverse formula: g h = mu h g + c g gives h g^-1 = mu g^-1 h + c g^-1 --


def _counting(order: str):
    """[w, y] = y with the generators in the given order."""
    return certified_system(parse_presentation(
        f"generators {order}\nrelations {{\n  [w, y] = y\n}}\n"))


def _hand_built(sign: int, g_first: bool):
    """Two letters g, h with the rule h g -> g h + sign g (g first) or
    g h -> h g + sign g (g second), certified."""
    g = ScalarGroup()
    ring = CoeffRing(g)
    gi = 0 if g_first else 1
    rhs = Element(ring, {(0, 1): Coeff.one(ring), (gi,): Coeff.from_rational(ring, sign)})
    s = ReductionSystem(g, ("g", "h") if g_first else ("h", "g"), [Rule((1, 0), rhs)])
    assert isinstance(s.check_confluence(), Confluent)
    return s


def _z4q():
    return certified_system(parse_presentation(
        "scalars { root zeta : 4 ; free q }\ngenerators a, b, c\nrelations {\n"
        "  b a = zeta * q * a b\n  c a = q^-1 * a c\n  c b = zeta^3 * b c\n}\n"))


def _scalar(s, text):
    return Coeff.of_degree(s.ring, _degree(s.group, text, 0))


# (system, g, h, phi^-1(h) where g h = phi(h) g, as a function of the extension)
INVERSE_CASES = {
    "plane-partner-after": (plane, "y", "x", lambda e: e.word("x").scale(_scalar(e, "q"))),
    "plane-partner-before": (plane, "x", "y", lambda e: e.word("y").scale(_scalar(e, "q^-1"))),
    "z4q-first": (_z4q, "a", "c", lambda e: e.word("c").scale(_scalar(e, "q^-1"))),
    "z4q-middle-before": (_z4q, "b", "a", lambda e: e.word("a").scale(_scalar(e, "zeta^3 * q^-1"))),
    "z4q-middle-after": (_z4q, "b", "c", lambda e: e.word("c").scale(_scalar(e, "zeta^3"))),
    "z4q-last": (_z4q, "c", "b", lambda e: e.word("b").scale(_scalar(e, "zeta"))),
    "counting-partner-after": (lambda: _counting("y, w"), "y", "w",
                               lambda e: e.word("w").add(e.one())),
    "counting-partner-before": (lambda: _counting("w, y"), "y", "w",
                                lambda e: e.word("w").add(e.one())),
    # h g = g h + sign g, so g h = (h - sign) g and g^-1 h g = h + sign
    "hand-h-after-plus": (lambda: _hand_built(1, True), "g", "h",
                          lambda e: e.word("h").add(e.one())),
    "hand-h-after-minus": (lambda: _hand_built(-1, True), "g", "h",
                           lambda e: e.word("h").sub(e.one())),
    # g h = h g + sign g, so g^-1 h g = h - sign
    "hand-h-before-plus": (lambda: _hand_built(1, False), "g", "h",
                           lambda e: e.word("h").sub(e.one())),
    "hand-h-before-minus": (lambda: _hand_built(-1, False), "g", "h",
                            lambda e: e.word("h").add(e.one())),
}


@pytest.mark.parametrize("case", sorted(INVERSE_CASES))
def test_inverse_conjugates_by_the_twist(case):
    build, g, h, phi_inv = INVERSE_CASES[case]
    s = build()
    ext, label = s.invert_generator(g)
    assert label == f"{g}^-1"
    assert ext.letters.index(label) == ext.letters.index(g) + 1
    assert ext.normal_form(ext.word(g, label)) == ext.one()
    assert ext.normal_form(ext.word(label, g)) == ext.one()
    assert ext.normal_form(ext.word(label, h, g)) == phi_inv(ext)


def test_twist_reads_both_orientations():
    s = plane()
    d, c = s.twist(0, 1)           # y x = q^-1 x y
    assert d == (0, -1) and c.is_zero()
    d, c = s.twist(1, 0)           # x y = q y x
    assert d == (0, 1) and c.is_zero()
    w = _counting("y, w")          # y w = w y - y
    d, c = w.twist(0, 1)
    assert d == (0,) and c == Coeff.from_rational(w.ring, -1)
    assert w.twist(1, 0) is None   # w is not normal: w y = y w + y


def test_twist_is_none_on_a_weyl_pair():
    s = a1()
    assert s.twist(0, 1) is None and s.twist(1, 0) is None
    with pytest.raises(NotNormalError):
        s.invert_generator("y")


def test_inverting_twice_is_refused():
    ext, _ = plane().invert_generator("y")
    for name in ("y", "y^-1"):
        with pytest.raises(InverseError, match="already inverted"):
            ext.invert_generator(name)
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    s = ReductionSystem(g, ("y", "x"), [Rule((1, 0), Element(ring, {(0, 1): q, (): Coeff.one(ring)}))])
    assert isinstance(s.check_confluence(), Confluent)
    z = Element(ring, {(): Coeff.one(ring), (0, 1): q.sub(Coeff.one(ring))})
    loc, label = s.adjoin_inverse(z, "z^-1")
    assert loc.letters == ("y", "x", "z", "z^-1")
    for name in ("z", "z^-1"):
        with pytest.raises(InverseError, match="already inverted"):
            loc.invert_generator(name)


def test_inversion_refusals():
    p = parse_presentation("scalars { free q }\ngenerators y1, y2\n"
                           "relations {\n  y1 y2 = q * y2 y1\n}\n")
    with pytest.raises(NotCertifiedError):
        system_from_presentation(p).invert_generator("y1")
    s = certified_system(p)
    with pytest.raises(NotNormalError, match="^inverse of a scaled generator"):
        s.adjoin_inverse(s.word("y1").scale(Coeff.from_rational(s.ring, 2)), "z^-1")
    # b a -> 2 a b: the pair is neither a scalar twist nor counts a.
    g = ScalarGroup()
    ring = CoeffRing(g)
    two_ab = Element(ring, {(0, 1): Coeff.from_rational(ring, 2)})
    s = ReductionSystem(g, ("a", "b"), [Rule((1, 0), two_ab)])
    assert isinstance(s.check_confluence(), Confluent)
    with pytest.raises(NotNormalError,
                       match="^cannot invert 'a': relation with 'b' is not a twist$"):
        s.invert_generator("a")
