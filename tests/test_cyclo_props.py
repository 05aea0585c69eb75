"""Independent oracles for the coefficient layer.

Differential checks against sympy (cyclotomic polynomials, products and
inverses in Q(zeta_e) = Q[x]/Phi_e), hypothesis property tests of the
field laws for Coeff over a group with torsion and one free symbol, and a
differential test of Coeff.mul's fast paths against the plain
multiply-then-cancel product.
"""
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qwalg.cyclo import Coeff, CoeffRing, cyclotomic_poly, lp_mul
from qwalg.scalars import ScalarGroup

X = sympy.Symbol("x")


def _ring(e: int, free: tuple[str, ...] = ()) -> CoeffRing:
    return CoeffRing(ScalarGroup(e, free, "zeta" if e > 1 else None))


def _sympy_phi(e: int) -> sympy.Poly:
    return sympy.Poly(sympy.cyclotomic_poly(e, X), X, domain="QQ")


def _sparse(cy) -> dict:
    """The numerator of a phi-tuple of power-basis coordinates."""
    return {(t,): c for t, c in enumerate(cy) if c}


def _to_poly(cy) -> sympy.Poly:
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * X**i
                          for i, c in enumerate(cy)), X, domain="QQ")


def _to_cy(p: sympy.Poly, phi: int) -> tuple:
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(coeffs + [Fraction(0)] * (phi - len(coeffs)))


@pytest.mark.parametrize("e", range(1, 61))
def test_cyclotomic_poly_matches_sympy(e):
    expected = sympy.Poly(sympy.cyclotomic_poly(e, X), X).all_coeffs()
    assert cyclotomic_poly(e) == [int(c) for c in reversed(expected)]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 8, 12])
def test_mul_and_inv_match_sympy(e):
    rng = random.Random(e)
    ring = _ring(e)
    phi_poly = _sympy_phi(e)
    assert ring.phi == phi_poly.degree()

    def rand_cy():
        while True:
            cy = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                       for _ in range(ring.phi))
            if any(cy):
                return cy

    for _ in range(25):
        a, b = rand_cy(), rand_cy()
        ca, cb = Coeff(ring, _sparse(a)), Coeff(ring, _sparse(b))
        prod = sympy.rem(_to_poly(a) * _to_poly(b), phi_poly)
        assert ca.mul(cb).num == _sparse(_to_cy(prod, ring.phi))
        inv = sympy.invert(_to_poly(a), phi_poly)
        assert ca.inv().num == _sparse(_to_cy(inv, ring.phi))
        assert not ca.inv().den


# -- field laws over Z/e x Z with torsion e and one free symbol q -----------

E = 6
GROUP = ScalarGroup(E, ("q",), "zeta")
RING = CoeffRing(GROUP)

terms = st.lists(st.tuples(st.integers(0, E - 1), st.integers(-2, 2),
                           st.fractions(min_value=-3, max_value=3, max_denominator=3)),
                 min_size=0, max_size=3)


def _laurent(ts) -> Coeff:
    out = Coeff.zero(RING)
    for t, k, r in ts:
        term = Coeff.of_degree(RING, (t, k))
        out = out.add(term.mul(Coeff.from_rational(RING, r)))
    return out


@st.composite
def coeffs(draw):
    """num or num / den, with den a non-zero Laurent polynomial."""
    num = _laurent(draw(terms))
    den = _laurent(draw(terms))
    return num if den.is_zero() else num.mul(den.inv())


LAWS = settings(max_examples=40, deadline=None)


def _exact(*cs: Coeff) -> bool:
    """Every coordinate of every numerator and denominator atom is an int or
    a Fraction (no float has leaked in)."""
    polys = [c.num for c in cs] + [c.ring.atoms[atom][0] for c in cs for atom in c.den]
    return all(type(v) in (int, Fraction) for p in polys for v in p.values())


@LAWS
@given(coeffs(), coeffs(), coeffs())
def test_mul_associative(a, b, c):
    assert _exact(a, b, c, a.mul(b), b.mul(c))
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@LAWS
@given(coeffs(), coeffs(), coeffs())
def test_distributive(a, b, c):
    assert _exact(b.add(c), a.mul(b.add(c)))
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))


@LAWS
@given(coeffs())
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert _exact(a.inv(), a.mul(a.inv()))
        assert a.mul(a.inv()) == Coeff.one(RING)


@LAWS
@given(coeffs(), coeffs())
def test_add_then_sub(a, b):
    assert _exact(a.add(b), a.add(b).sub(b))
    assert a.add(b).sub(b) == a


units = st.builds(lambda t, k, r: Coeff.of_degree(RING, (t, k))
                  .mul(Coeff.from_rational(RING, r)),
                  st.integers(0, E - 1), st.integers(-3, 3),
                  st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool))


def _assert_atoms_shifted_and_monic(ring: CoeffRing):
    """The precondition of the division shortcut: every interned atom has
    least exponent 0 in each symbol and lead field part exactly 1."""
    for poly, deg, lead in ring.atoms:
        for i in range(ring.m):
            assert min(k[i] for k in poly) == 0
            assert max(k[i] for k in poly) == deg[i]
        assert lead == max(k[:-1] for k in poly)
        assert {k[-1]: v for k, v in poly.items() if k[:-1] == lead} == {0: 1}


@st.composite
def factor_pairs(draw):
    """Two factors, either side a unit, a polynomial or a quotient, or a
    quotient n/d next to a multiple m*d of its denominator, in either order."""
    factor = st.one_of(units, coeffs())
    a, b = draw(factor), draw(factor)
    if draw(st.booleans()):
        d = _laurent(draw(terms))
        if not d.is_zero():
            a, b = a.mul(d.inv()), _laurent(draw(terms)).mul(d)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=200, deadline=None)
@given(factor_pairs())
def test_mul_matches_cancelled_product(pair):
    a, b = pair
    reference = Coeff(RING, lp_mul(RING, a.num, b.num), a.den + b.den)._cancel()
    got = a.mul(b)
    assert got.num == reference.num
    assert got.den == reference.den
    _assert_atoms_shifted_and_monic(RING)


# -- lp_mul's one-term path against the general double loop -----------------


def _double_loop(ring: CoeffRing, a: dict, b: dict) -> dict:
    """Every pair of terms, each power of zeta expanded through ring.roots."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            *exp, t = (x + y for x, y in zip(ka, kb))
            for s, r in ring.roots[t % ring.e]:
                k = (*exp, s)
                out[k] = out.get(k, 0) + va * vb * r
    return {k: v for k, v in out.items() if v}


def _numerators(ring: CoeffRing, size: int):
    key = st.tuples(*[st.integers(-2, 2)] * ring.m, st.integers(0, ring.phi - 1))
    value = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    return st.dictionaries(key, value, min_size=size, max_size=size if size == 1 else 4)


@pytest.mark.parametrize("e,free", [(1, ("q",)), (2, ("q", "p")), (3, ("q",))])
def test_lp_mul_one_term_factor_matches_double_loop(e, free):
    ring = _ring(e, free)

    @settings(max_examples=60, deadline=None)
    @given(_numerators(ring, 1), _numerators(ring, 0), st.booleans())
    def check(one, other, swap):
        a, b = (other, one) if swap else (one, other)
        assert lp_mul(ring, a, b) == _double_loop(ring, a, b)
    check()
