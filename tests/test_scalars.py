import random

import pytest

from qwalg.scalars import (GroupMismatch, Scalar, ScalarGroup, format_scalar,
                           merge_groups, subgroup_canonical_form)


def rnd_scalar(group, rng):
    return group.scalar(torsion=rng.randrange(group.torsion_order),
                        free=tuple(rng.randrange(-4, 5) for _ in range(group.rank)))


def test_minus_one_squares_to_one():
    g = ScalarGroup(2, (), "zeta")
    m = g.minus_one()
    assert m.mul(m).is_one()


def test_inverse_law():
    g = ScalarGroup(1, ("q",))
    q = g.free_gen("q")
    assert q.mul(q.inv()).is_one()


def test_componentwise_addition():
    g = ScalarGroup(4, ("q",), "zeta")
    s = g.root(2).mul(g.free_gen("q"))
    assert s.torsion == 2 and s.free == (1,)


def test_pow_examples():
    g = ScalarGroup(4, ("q",), "zeta")
    assert g.free_gen("q").pow(3).free == (3,)
    assert g.root().pow(5).torsion == 1
    assert g.free_gen("q", 2).pow(-1).free == (-2,)
    assert g.free_gen("q").pow(0).is_one()


def test_root_needs_torsion():
    with pytest.raises(ValueError):
        ScalarGroup().root()
    with pytest.raises(ValueError):
        ScalarGroup(1, ("q",)).root(3)


def test_merge_groups():
    q, zq = ScalarGroup(1, ("q",)), ScalarGroup(4, ("q",), "zeta")
    assert merge_groups(q, ScalarGroup(1, ("p", "q"))) == ScalarGroup(1, ("q", "p"))
    assert merge_groups(zq, q) == zq and merge_groups(q, zq) == zq
    for other in (ScalarGroup(6, (), "zeta"), ScalarGroup(4, (), "xi"),
                  ScalarGroup(1, (), "zeta")):
        with pytest.raises(GroupMismatch, match="incompatible root-of-unity"):
            merge_groups(zq, other)


def test_group_mismatch():
    g1 = ScalarGroup(1, ("q",))
    g2 = ScalarGroup(1, ("p",))
    with pytest.raises(GroupMismatch):
        g1.free_gen("q").mul(g2.free_gen("p"))


def test_group_laws_random():
    rng = random.Random(1)
    g = ScalarGroup(6, ("q", "p"), "zeta")
    for _ in range(300):
        a, b, c = (rnd_scalar(g, rng) for _ in range(3))
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b) == b.mul(a)
        assert a.mul(g.one()) == a
        assert a.mul(a.inv()).is_one()


def test_subgroup_q_qinv():
    g = ScalarGroup(1, ("q",))
    q = g.free_gen("q")
    d = subgroup_canonical_form(g, [q, q.inv()])
    assert d.torsion_order == 1
    assert d.free_basis == ((1,),)


def test_subgroup_gcd():
    # gcd(2, 3) = 1, so q^2 and q^3 generate everything.
    g = ScalarGroup(1, ("q",))
    q = g.free_gen("q")
    d = subgroup_canonical_form(g, [q.pow(2), q.pow(3)])
    assert d.free_basis == ((1,),)
    d2 = subgroup_canonical_form(g, [q.pow(4), q.pow(6)])
    assert d2.free_basis == ((2,),)


def test_subgroup_minus_one_and_q():
    g = ScalarGroup(2, ("q",), "zeta")
    d = subgroup_canonical_form(g, [g.minus_one(), g.free_gen("q")])
    assert d.torsion_order == 2
    assert d.free_basis == ((1,),)
    assert not d.is_trivial()


def test_subgroup_invariance():
    rng = random.Random(7)
    g = ScalarGroup(4, ("q", "p"), "zeta")
    for _ in range(50):
        gens = [rnd_scalar(g, rng) for _ in range(rng.randrange(1, 5))]
        base = subgroup_canonical_form(g, gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert subgroup_canonical_form(g, shuffled) == base
        assert subgroup_canonical_form(g, gens + [gens[0]]) == base
        k = rng.randrange(len(gens))
        replaced = gens[:]
        replaced[k] = replaced[k].inv()
        assert subgroup_canonical_form(g, replaced) == base
        other = rng.randrange(len(gens))
        combined = gens[:]
        combined[k] = gens[k].mul(gens[other]) if other != k else gens[k]
        assert subgroup_canonical_form(g, combined) == base


def test_format_scalar():
    g = ScalarGroup(4, ("q",), "zeta")
    assert format_scalar(g.one()) == "1"
    assert format_scalar(g.root(2)) == "-1"
    assert format_scalar(g.root().mul(g.free_gen("q", -2))) == "zeta * q^-2"
