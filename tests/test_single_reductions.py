"""Work the engine does once.

``normal_form`` takes a sum of irreducible words as its own normal form.
``adjoin_inverse`` reduces the element it adjoins at most once and reads
the normality scalars off that normal form.  ``verify_homomorphism``
reduces an image only when a rule applies to one of its words, and every
defect that the twist degrees do not settle.  Both keep their
certification check.
"""
import pytest

from qwalg.cyclo import Coeff, CoeffRing
from qwalg.presentation import (FailingRelation, GeneratorMap, Verified, certified_system,
                                system_from_presentation, verify_homomorphism)
from qwalg.qwa import parse_presentation
from qwalg.rewrite import Element, NotCertifiedError, ReductionSystem, Rule
from qwalg.scalars import ScalarGroup

from support import count_reductions, raw_image_verify

WEYL = "generators y, x\nrelations {\n  x y = y x + 1\n}\n"
PLANE = "scalars { free q }\ngenerators a, b\nrelations {\n  a b = q * b a\n}\n"
COMMUTING = "generators a, b\n"


def q_weyl():
    """y, x with x y = q y x + 1, and its normal element z = 1 + (q - 1) y x."""
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, (0, 1))
    rel = [Rule((1, 0), Element(ring, {(0, 1): q, (): Coeff.one(ring)}))]
    s = ReductionSystem(g, ("y", "x"), rel)
    z = Element(ring, {(): Coeff.one(ring), (0, 1): q.sub(Coeff.one(ring))})
    return s, z


def test_adjoin_inverse_reduces_the_element_once(monkeypatch):
    s, z = q_weyl()
    s.check_confluence()
    twists = s.commutation_with_generators(z)
    inputs = []
    real = ReductionSystem._reduce_terms

    def recorded(self, terms):
        inputs.append(dict(terms))
        return real(self, terms)
    monkeypatch.setattr(ReductionSystem, "_reduce_terms", recorded)
    ext, label = s.adjoin_inverse(z, "z^-1")
    # The words 1 and y x of z are irreducible: z is its own normal form.
    assert not any(terms == z.terms for terms in inputs)
    z_letter = ext.word(label[:-3])
    for name, mu in twists.items():
        g = ext.word(name)
        assert ext.normal_form(z_letter.concat(g)) == \
            ext.normal_form(g.concat(z_letter)).scale(Coeff.of_degree(ext.ring, mu.degree()))


def test_uncertified_systems_are_refused():
    s, z = q_weyl()
    with pytest.raises(NotCertifiedError):
        s.commutation_with_generators(z)
    with pytest.raises(NotCertifiedError):
        s.adjoin_inverse(z, "z^-1")
    plane = parse_presentation(PLANE)
    target = system_from_presentation(plane)
    letters = GeneratorMap(plane, target, {"a": target.word("a"), "b": target.word("b")})
    with pytest.raises(NotCertifiedError):
        verify_homomorphism(letters)
    target.check_confluence()
    assert verify_homomorphism(letters) == Verified(1)


def test_letter_images_are_not_reduced(monkeypatch):
    """The identity map of the quantum plane needs no reduction at all: its
    images are letters and its relation is settled by degrees."""
    plane = parse_presentation(PLANE)
    target = certified_system(plane)
    calls = count_reductions(monkeypatch)
    gmap = GeneratorMap(plane, target, {"a": target.word("a"), "b": target.word("b")})
    assert verify_homomorphism(gmap) == Verified(1)
    assert not calls


def test_other_images_and_defects_are_reduced(monkeypatch):
    """Into the Weyl algebra: the image x y has a rule at its pair and is
    reduced, the letter y is not, and the defect is reduced.  The letters x
    and y do not commute, and the defect -1 comes back reduced."""
    source = parse_presentation(COMMUTING)
    target = certified_system(parse_presentation(WEYL))
    calls = count_reductions(monkeypatch)
    gmap = GeneratorMap(source, target, {"a": target.word("x", "y"), "b": target.word("y")})
    res = verify_homomorphism(gmap)
    assert isinstance(res, FailingRelation) and len(calls) == 2
    assert res == raw_image_verify(gmap)
    del calls[:]
    gmap = GeneratorMap(source, target, {"a": target.word("x"), "b": target.word("y")})
    res = verify_homomorphism(gmap)
    assert len(calls) == 1
    assert res == raw_image_verify(gmap) == FailingRelation(("a", "b"), target.one().neg())
