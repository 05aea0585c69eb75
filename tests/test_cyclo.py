import random

import pytest

from qwalg.cyclo import Coeff, CoeffRing, coeff_degree, cyclotomic_poly
from qwalg.scalars import ScalarGroup


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]
    assert cyclotomic_poly(12) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("e", [1, 2, 3, 4, 6, 8])
def test_root_of_unity_relations(e):
    g = ScalarGroup(e, (), "zeta" if e > 1 else None)
    ring = CoeffRing(g)
    z = Coeff.of_degree(ring, g.scalar(torsion=1 % e).degree())
    acc = Coeff.one(ring)
    for _ in range(e):
        acc = acc.mul(z)
    assert acc == Coeff.one(ring)          # zeta^e = 1
    # Phi_e(zeta) = 0 in the represented field
    phi = cyclotomic_poly(e)
    val = Coeff.zero(ring)
    power = Coeff.one(ring)
    for c in phi:
        val = val.add(power.mul(Coeff.from_rational(ring, c)))
        power = power.mul(z)
    assert val.is_zero()
    if e % 2 == 0:
        half = Coeff.of_degree(ring, g.scalar(torsion=e // 2).degree())
        assert half == Coeff.from_rational(ring, -1)   # zeta^(e/2) = -1


def test_embedding_multiplicative():
    rng = random.Random(2)
    g = ScalarGroup(4, ("q", "p"), "zeta")
    ring = CoeffRing(g)
    for _ in range(100):
        a = g.scalar(torsion=rng.randrange(4),
                     free=(rng.randrange(-3, 4), rng.randrange(-3, 4)))
        b = g.scalar(torsion=rng.randrange(4),
                     free=(rng.randrange(-3, 4), rng.randrange(-3, 4)))
        assert Coeff.of_degree(ring, a.degree()).mul(Coeff.of_degree(ring, b.degree())) == \
            Coeff.of_degree(ring, a.mul(b).degree())


def test_scalar_roundtrip():
    g = ScalarGroup(4, ("q",), "zeta")
    ring = CoeffRing(g)
    s = g.root(3).mul(g.free_gen("q", -2))
    assert coeff_degree(Coeff.of_degree(ring, s.degree())) == s.degree()
    two = Coeff.from_rational(ring, 2)
    assert coeff_degree(two) is None


ORDERS = [1, 2, 3, 4, 5, 6, 8, 12, 30]
ROOTS = [(e, t) for e in ORDERS for t in range(e)]


@pytest.mark.parametrize("e,t", ROOTS)
def test_embedding_multiplicative_every_root(e, t):
    rng = random.Random(e * 100 + t)
    g = ScalarGroup(e, ("q", "p"), "zeta" if e > 1 else None)
    ring = CoeffRing(g)
    a = g.scalar(torsion=t, free=(rng.randrange(-3, 4), rng.randrange(-3, 4)))
    for s in range(e):
        b = g.scalar(torsion=s, free=(rng.randrange(-3, 4), rng.randrange(-3, 4)))
        assert Coeff.of_degree(ring, a.degree()).mul(Coeff.of_degree(ring, b.degree())) == \
            Coeff.of_degree(ring, a.mul(b).degree())


@pytest.mark.parametrize("e,t", ROOTS)
def test_scalar_roundtrip_every_root(e, t):
    g = ScalarGroup(e, ("q",), "zeta" if e > 1 else None)
    ring = CoeffRing(g)
    s = g.scalar(torsion=t, free=(-2,))
    assert coeff_degree(Coeff.of_degree(ring, s.degree())) == s.degree()
    two = Coeff.from_rational(ring, 2)
    assert coeff_degree(two) is None
    assert coeff_degree(Coeff.of_degree(ring, s.degree()).mul(two)) is None
    # the root times (1 + q) has two q-monomials
    one_q = Coeff.one(ring).add(Coeff.of_degree(ring, g.free_gen("q").degree()))
    assert coeff_degree(Coeff.of_degree(ring, s.degree()).mul(one_q)) is None


def test_inverse_of_binomial():
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    qm1 = q.sub(Coeff.one(ring))
    inv = qm1.inv()
    assert inv.mul(qm1) == Coeff.one(ring)
    assert qm1.mul(inv).sub(Coeff.one(ring)).is_zero()
    # (q^2 - 1)/(q - 1) cancels exactly to q + 1
    q2m1 = q.mul(q).sub(Coeff.one(ring))
    ratio = q2m1.mul(inv)
    assert ratio == q.add(Coeff.one(ring))
    assert not ratio.den


def test_inverse_of_cyclotomic_unit():
    g = ScalarGroup(8, (), "zeta")
    ring = CoeffRing(g)
    z = Coeff.of_degree(ring, g.root().degree())
    u = z.add(Coeff.one(ring))  # 1 + zeta is a unit in Q(zeta_8)
    assert u.inv().mul(u) == Coeff.one(ring)


def test_divexact():
    g = ScalarGroup(1, ("q", "p"))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    p = Coeff.of_degree(ring, g.free_gen("p").degree())
    a = q.mul(q).sub(p.mul(p))
    b = q.sub(p)
    quot = a.mul(b.inv())
    assert not quot.den
    assert quot.mul(b) == a
    # q^10001 - 1 = (q - 1)(q^10000 + ... + 1): the quotient has 10001 terms.
    one = Coeff.one(ring)
    qm1 = q.sub(one)
    big = Coeff.of_degree(ring, g.free_gen("q", 10001).degree()).sub(one)
    quot = big.mul(qm1.inv())
    assert not quot.den and len(quot.num) == 10001
    assert quot.mul(qm1) == big
    assert big.add(one).add(one).mul(qm1.inv()).den


def test_zero_and_equality_cross_denominators():
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    qm1 = q.sub(Coeff.one(ring))
    a = q.mul(q).sub(Coeff.one(ring)).mul(qm1.inv())   # (q^2-1)/(q-1)
    b = q.add(Coeff.one(ring))                         # q + 1
    assert a == b
    assert a.sub(b).is_zero()


def test_equality_across_different_denominators():
    """1/(q-1) and (q+1)/(q^2-1) keep distinct atoms as denominators, so
    equality cross-multiplies; so does the inequality with the second plus 1."""
    g = ScalarGroup(1, ("q",))
    ring = CoeffRing(g)
    one = Coeff.one(ring)
    q = Coeff.of_degree(ring, g.free_gen("q").degree())
    a = q.sub(one).inv()
    b = q.add(one).mul(q.mul(q).sub(one).inv())
    assert len(a.den) == len(b.den) == 1 and a.den != b.den
    assert a == b and b == a
    c = b.add(one)
    assert c.den == b.den
    assert a != c and c != a


def test_a_coefficient_equals_no_other_type():
    ring = CoeffRing(ScalarGroup())
    assert Coeff.one(ring) != 1 and not Coeff.one(ring) == 1
