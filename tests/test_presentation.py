import random
from fractions import Fraction

import pytest

from qwalg import intlattice as il
from qwalg.cyclo import Coeff
from qwalg.presentation import (Additive, AddMultiple, Eulerian,
                                EulerianNotSupported, FailingRelation,
                                GeneratorMap, Multiplicative, OpError, Permute,
                                Presentation, PresentationError, Scale, Verified, apply_op,
                                certified_system, check_admissible,
                                subpresentation, verify_homomorphism,
                                weyl_matrix)
from qwalg.qwa import parse_document, parse_presentation
from qwalg.scalars import ScalarGroup

from support import CORPUS, S22_TEXT


def triangle(group, rel12, rel13, rel23):
    return Presentation.build(group, ("g1", "g2", "g3"),
                              [(0, 1, rel12), (0, 2, rel13), (1, 2, rel23)])


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def test_admissible_ta3(grp):
    q = grp.free_gen("q")
    p = triangle(grp, Additive(1), Multiplicative(q), Multiplicative(q.inv()))
    assert check_admissible(p).admissible


def test_inadmissible_case_three(grp):
    q = grp.free_gen("q")
    p = triangle(grp, Additive(1), Multiplicative(q), Multiplicative(q))
    rep = check_admissible(p)
    assert not rep.admissible
    assert rep.witness[:3] == (0, 1, 2)


def test_all_weyl_admissible(grp):
    p = triangle(grp, Additive(1), Additive(-3), Additive(7))
    assert check_admissible(p).admissible


def test_mixed_weyl_quantum_inadmissible(grp):
    q = grp.free_gen("q")
    # one endpoint quantum, the other commuting: lemma forces rejection
    p = triangle(grp, Additive(1), Multiplicative(q), Additive(0))
    assert not check_admissible(p).admissible


def test_admissible_rejects_eulerian():
    p = parse_presentation("generators y, w\nrelations {\n  [w, y] = y\n}\n")
    with pytest.raises(EulerianNotSupported):
        check_admissible(p)
    with pytest.raises(EulerianNotSupported):
        weyl_matrix(p)


def test_weyl_matrix_s22():
    p = parse_presentation(S22_TEXT)  # generator order x1, y1, x2, y2
    assert weyl_matrix(p) == [[0, 1, 0, 0], [-1, 0, 0, 0],
                              [0, 0, 0, 1], [0, 0, -1, 0]]


def test_weyl_matrix_quantum_zero(grp):
    q = grp.free_gen("q")
    p = triangle(grp, Multiplicative(q), Multiplicative(q), Multiplicative(q))
    assert weyl_matrix(p) == [[0] * 3 for _ in range(3)]


def test_weyl_matrix_triangle_rank(grp):
    p = triangle(grp, Additive(1), Additive(1), Additive(1))
    m = weyl_matrix(p)
    assert m == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert il.rank(m) == 2


def test_subpresentation_examples():
    p = parse_presentation(S22_TEXT)
    qp = subpresentation(p, ["y1", "y2"])
    assert qp.gens == ("y1", "y2")
    assert qp.rels[(0, 1)] == Multiplicative(p.group.free_gen("q"))
    single = subpresentation(p, ["y1"])
    assert single.n == 1 and single.rels == {}
    pair = subpresentation(p, ["x1", "y1"])
    assert pair.additive_weight(0, 1) == 1  # x1 y1 = y1 x1 + 1


def test_subpresentation_empty():
    p = parse_presentation(S22_TEXT)
    with pytest.raises(Exception):
        subpresentation(p, [])


def test_admissibility_invariant_under_permutation(grp):
    rng = random.Random(23)
    q = grp.free_gen("q")
    kinds = [Additive(0), Additive(1), Additive(2), Additive(-1),
             Multiplicative(q), Multiplicative(q.inv()), Multiplicative(q.pow(2))]
    for _ in range(80):
        n = rng.randrange(3, 6)
        items = [(i, j, rng.choice(kinds))
                 for i in range(n) for j in range(i + 1, n)]
        p = Presentation.build(grp, tuple(f"g{k}" for k in range(n)), items)
        verdict = check_admissible(p).admissible
        order = list(range(n))
        rng.shuffle(order)
        p2 = apply_op(p, Permute(tuple(order)))
        assert check_admissible(p2).admissible == verdict


def test_scale_op(grp):
    p = triangle(grp, Additive(2), Additive(4), Additive(0))
    p2 = apply_op(p, Scale(0, Fraction(1, 2)))
    assert p2.additive_weight(0, 1) == 1
    assert p2.additive_weight(0, 2) == 2
    with pytest.raises(OpError):
        apply_op(p, Scale(0, Fraction(1, 3)))  # weight 2/3 not integral


def test_add_multiple_op(grp):
    # g2 += 3*g3 where both relate additively to g1
    p = triangle(grp, Additive(2), Additive(3), Additive(0))
    p2 = apply_op(p, AddMultiple(1, 2, 3))
    assert p2.additive_weight(0, 1) == 2 + 3 * 3
    assert p2.additive_weight(1, 2) == 0


def test_add_multiple_rejects_mixed(grp):
    q = grp.free_gen("q")
    p = triangle(grp, Additive(0), Multiplicative(q), Additive(1))
    # g1 += c*g2: g1-g3 is quantum but g2-g3 is Weyl
    with pytest.raises(OpError):
        apply_op(p, AddMultiple(0, 1, 1))


def test_quantum_weights_survive_add(grp):
    q = grp.free_gen("q")
    p = Presentation.build(grp, ("a", "b", "c", "d"), [
        (0, 1, Additive(1)), (0, 2, Additive(2)),
        (1, 3, Multiplicative(q)), (2, 3, Multiplicative(q)),
        (0, 3, Multiplicative(q.inv())),
    ])
    assert check_admissible(p).admissible
    p2 = apply_op(p, AddMultiple(1, 2, 5))
    assert p2.rel(1, 3) == Multiplicative(q)
    assert p2.additive_weight(0, 1) == 11


# ---------------------------------------------------------------------------
# Relation semantics shared by the reduction rules and map verification.

def test_corpus_identity_maps_verify():
    checked = 0
    for path in sorted(CORPUS.glob("*.qwa")):
        p = parse_document(path.read_text()).presentation
        if p is None:
            continue
        sys = certified_system(p)
        gmap = GeneratorMap(p, sys, {g: sys.word(g) for g in p.gens})
        res = verify_homomorphism(gmap)
        assert isinstance(res, Verified), path.name
        assert res.relations_checked == p.n * (p.n - 1) // 2
        checked += 1
    assert checked >= 16


def _broken(grp, item, image):
    """The pair (x, z) carries the relation ``item`` and y commutes with both;
    returns the verification of the identity map and of the map changed by
    ``image``."""
    p = Presentation.build(grp, ("x", "y", "z"), [item])
    sys = certified_system(p)
    ident = {g: sys.word(g) for g in p.gens}
    return (verify_homomorphism(GeneratorMap(p, sys, ident)),
            verify_homomorphism(GeneratorMap(p, sys, {**ident, **image(sys)})))


@pytest.mark.parametrize("kind", ["additive", "multiplicative",
                                  "eulerian_w_first", "eulerian_w_second"])
def test_map_breaking_one_pair_names_it(grp, kind):
    q = grp.free_gen("q")
    two = lambda sys, g: sys.word(g).scale(Coeff.from_rational(sys.ring, 2))
    item, image = {
        # [x, 2z] = 2 != 1
        "additive": ((0, 2, Additive(1)), lambda sys: {"z": two(sys, "z")}),
        # x z^2 = q^2 z^2 x != q z^2 x
        "multiplicative": ((0, 2, Multiplicative(q)),
                           lambda sys: {"z": sys.word("z", "z")}),
        # [2x, z] = 2z != z
        "eulerian_w_first": ((0, 2, Eulerian(0)), lambda sys: {"x": two(sys, "x")}),
        # [2z, x] = 2x != x
        "eulerian_w_second": ((2, 0, Eulerian(2)), lambda sys: {"z": two(sys, "z")}),
    }[kind]
    ok, bad = _broken(grp, item, image)
    assert ok == Verified(3)
    assert isinstance(bad, FailingRelation)
    assert bad.pair == ("x", "z")
    assert not bad.defect.is_zero()



def test_eulerian_item_counts_with_its_first_index(grp):
    gens = ("x", "y", "z")
    with pytest.raises(PresentationError, match="first generator"):
        Presentation.build(grp, gens, [(0, 2, Eulerian(2))])
    # (2, 0, Eulerian(2)) is [z, x] = x
    sys = certified_system(Presentation.build(grp, gens, [(2, 0, Eulerian(2))]))
    comm = sys.multiply(sys.word("z"), sys.word("x")).sub(sys.multiply(sys.word("x"), sys.word("z")))
    assert comm == sys.word("x")


def test_build_refusals():
    g = ScalarGroup(1, ("q",))
    p_weight = Multiplicative(ScalarGroup(1, ("p",)).free_gen("p"))
    for gens, items, message in [
            (("a", "a"), [], "duplicate generator names"),
            (("a", "b"), [(0, 0, Additive(1))], "self-relation on generator 'a'"),
            (("a", "b"), [(0, 1, Additive(1)), (1, 0, Additive(2))],
             "duplicate relation for pair (a, b)"),
            (("a", "b"), [(0, 1, p_weight)], "weight scalar outside the declared group"),
            (("a", "b"), [(0, 1, 1)], "unknown relation kind 1")]:
        with pytest.raises(PresentationError) as err:
            Presentation.build(g, gens, items)
        assert str(err.value) == message


def test_accessors_on_a_weyl_pair():
    p = Presentation.build(ScalarGroup(), ("x", "y"), [(0, 1, Additive(1))])
    with pytest.raises(PresentationError, match="^no self-relations$"):
        p.rel(0, 0)
    assert p.quantum_weight(0, 1) is None
    assert p != "x"


def test_subpresentation_keeps_the_counting_generator():
    g = ScalarGroup()
    p = Presentation.build(g, ("w", "y"), [(0, 1, Eulerian(0))])
    assert subpresentation(p, ["w", "y"]) == p
    assert subpresentation(p, ["y", "w"]) == Presentation.build(g, ("y", "w"),
                                                                [(1, 0, Eulerian(1))])


def test_apply_op_refusals():
    p = parse_presentation(S22_TEXT)  # x1 x2 = q x2 x1: a quantum pair
    for op, message in [(Permute((0, 0, 1, 2)), "permutation is not a bijection"),
                        (Scale(0, Fraction(0)), "zero scale factor"),
                        (AddMultiple(0, 0, 1), "cannot add a generator to itself"),
                        (("bogus",), "unknown operation ('bogus',)")]:
        with pytest.raises(OpError) as err:
            apply_op(p, op)
        assert str(err.value) == message
    # A zero multiple changes nothing, even of a quantum pair.
    assert apply_op(p, AddMultiple(0, 2, 0)) is p
    with pytest.raises(OpError):
        apply_op(p, AddMultiple(0, 2, 1))
    eulerian = Presentation.build(ScalarGroup(), ("w", "y"), [(0, 1, Eulerian(0))])
    with pytest.raises(EulerianNotSupported, match="^generator changes operate on"):
        apply_op(eulerian, Permute((1, 0)))
