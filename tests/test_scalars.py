import random

import pytest

from qwalg import intlattice as il
from qwalg.rewrite import Confluent
from qwalg.scalars import (Frozen, GroupMismatch, Scalar, ScalarGroup, format_scalar,
                           merge_groups, subgroup_canonical_form)
from qwalg.torus import QuantumTorus


class Weight(Frozen):
    """A one-field value class, as the package's own are made."""

    __slots__ = ("weight",)

    def __init__(self, weight):
        object.__setattr__(self, "weight", weight)


class Counting(Frozen):
    """A second one-field value class, to compare across classes."""

    __slots__ = ("w_index",)

    def __init__(self, w_index: int):
        object.__setattr__(self, "w_index", w_index)


def rnd_scalar(group, rng):
    return group.scalar(torsion=rng.randrange(group.torsion_order),
                        free=tuple(rng.randrange(-4, 5) for _ in range(group.rank)))


def test_minus_one_squares_to_one():
    g = ScalarGroup(2, (), "zeta")
    m = g.scalar(torsion=1)
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


def test_value_types_compare_hash_and_print_by_value():
    """Scalar, ScalarGroup and Confluent, and any other Frozen class, are
    immutable values: equal only within one type, hashed alike when equal,
    checked on construction and printed as Name(field=value).  All but
    ScalarGroup, whose rank, free_index and hash derive from its fields,
    take their equality, hash and repr from Frozen."""
    g = ScalarGroup(4, ("q",), "zeta")
    q = g.free_gen("q")
    for make in (lambda: ScalarGroup(torsion_order=4, free_symbols=("q",), root_symbol="zeta"),
                 lambda: Scalar(group=g, torsion=1, free=(2,)), lambda: Weight(1),
                 lambda: Weight(q), lambda: Counting(1), Confluent):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert g != ScalarGroup(4, ("q",), "xi") and g != ScalarGroup(2, ("q",), "zeta")
    assert Weight(1) != Counting(1) and Weight(1) != Weight(2)
    assert Weight(q) != Weight(q.inv())
    assert Scalar(g, 1, (2,)) != (g, 1, (2,))
    assert {Weight(1): 0} != {Counting(1): 0}
    for value, field in ((g, "torsion_order"), (g, "free_symbols"), (q, "torsion"),
                         (q, "free"), (Weight(1), "weight"),
                         (Weight(q), "weight"), (Counting(1), "w_index")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        Confluent().word = ()
    for bad, message in ((lambda: ScalarGroup(0), "torsion order must be >= 1"),
                         (lambda: ScalarGroup(1, ("q", "q")), "scalar symbol names must be distinct"),
                         (lambda: ScalarGroup(2, ("z",), "z"), "scalar symbol names must be distinct"),
                         (lambda: Scalar(g, 4, (0,)), "torsion exponent out of range"),
                         (lambda: Scalar(g, -1, (0,)), "torsion exponent out of range"),
                         (lambda: Scalar(g, 0, ()), "free exponent vector has the wrong length")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            bad()
    group = "ScalarGroup(torsion_order=4, free_symbols=('q',), root_symbol='zeta')"
    assert repr(g) == group
    assert repr(q) == f"Scalar(group={group}, torsion=0, free=(1,))"
    assert repr(Weight(q)) == f"Weight(weight={q!r})"
    assert repr(Weight(1)) == "Weight(weight=1)"
    assert repr(Counting(0)) == "Counting(w_index=0)"
    assert repr(Confluent()) == "Confluent()" and Confluent()
    kinds = {cls.__name__: cls for cls in Frozen.__subclasses__()
             if cls.__module__.startswith("qwalg.") or cls.__module__ == __name__}
    assert kinds.keys() == {"ScalarGroup", "Scalar", "Confluent", "Weight", "Counting"}
    assert [name for name, cls in kinds.items()
            if {"__eq__", "__hash__", "__repr__"} & vars(cls).keys()] == ["ScalarGroup"]
    assert g.free_index == {"q": 0} and g.free_index is g.free_index


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


def test_an_unknown_free_symbol_is_named():
    """A free generator or a uniparameter torus in a symbol the group does
    not declare is refused with the symbol's name."""
    g = ScalarGroup(4, ("q",), "zeta")
    message = "^'p' is not a free symbol of the scalar group$"
    with pytest.raises(ValueError, match=message):
        g.free_gen("p")
    with pytest.raises(ValueError, match=message):
        QuantumTorus.uniparameter(g, "p", [[0, 1], [-1, 0]])
    with pytest.raises(ValueError, match="^'zeta' is not a free symbol"):
        g.free_gen("zeta")  # the root symbol is not free


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
    d = subgroup_canonical_form(g, [g.scalar(torsion=1), g.free_gen("q")])
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


def three_step_subgroup_form(group, gens):
    """Reference: HNF of the (t, v) lift, a second HNF of the free parts,
    and the torsion order from the lift's intersection with Z x 0."""
    e, m = group.torsion_order, group.rank
    full = il.hermite_nf([[g.torsion] + list(g.free) for g in gens] + [[e] + [0] * m])
    full = [r for r in full if any(r)]
    hf = il.hermite_nf([list(g.free) for g in gens] or [[0] * m])
    inter = il.lattice_intersect(full, [[1] + [0] * m], 1 + m)
    c = abs(inter[0][0]) if inter else e
    return e // c, tuple(tuple(r) for r in hf if any(r))


def test_subgroup_matches_three_step_reference():
    rng = random.Random(13)
    for _ in range(800):
        e = rng.choice((1, 2, 3, 4, 6, 12))
        g = ScalarGroup(e, ("p", "q", "r")[:rng.randrange(4)], "zeta" if e > 1 else None)
        gens = [rnd_scalar(g, rng) for _ in range(rng.randrange(5))]
        d = subgroup_canonical_form(g, gens)
        assert (d.torsion_order, d.free_basis) == three_step_subgroup_form(g, gens)
        assert d.full_basis[-1][:g.rank] == (0,) * g.rank
        assert e % d.full_basis[-1][-1] == 0


def test_subgroup_of_no_generators_is_trivial():
    for e in (1, 2, 3, 4, 6, 12):
        for m in range(4):
            g = ScalarGroup(e, ("p", "q", "r")[:m], "zeta" if e > 1 else None)
            d = subgroup_canonical_form(g, [])
            assert d.is_trivial()
            assert (d.torsion_order, d.free_basis) == three_step_subgroup_form(g, [])


def test_format_scalar():
    g = ScalarGroup(4, ("q",), "zeta")
    assert format_scalar(g.one()) == "1"
    assert format_scalar(g.root(2)) == "-1"
    assert format_scalar(g.root().mul(g.free_gen("q", -2))) == "zeta * q^-2"


def test_refusals_and_foreign_comparisons():
    g = ScalarGroup(4, ("q",))  # torsion with no root symbol
    with pytest.raises(ValueError, match="^group has torsion but no declared root symbol$"):
        format_scalar(g.scalar(1))
    with pytest.raises(GroupMismatch, match="^generator outside the declared group$"):
        subgroup_canonical_form(g, [ScalarGroup(4, ("p",)).free_gen("p")])
    with pytest.raises(AttributeError, match="^cannot delete field 'torsion'$"):
        del g.one().torsion
    assert not g == "g" and g != "g"
