import random
from fractions import Fraction

import pytest

from qwalg import intlattice as il
from qwalg.cyclo import Coeff
from qwalg.presentation import (AddMultiple, EulerianNotSupported, FailingRelation,
                                GeneratorMap, OpError, Permute, Presentation, Scale,
                                Verified, apply_op, certified_system, check_admissible,
                                verify_homomorphism)
from qwalg.qwa import parse_document, parse_presentation
from qwalg.scalars import GroupMismatch, ScalarGroup

from support import CORPUS, S22_TEXT, subpresentation

# Degrees over the group Z<q> of the fixture grp: q, q^-1 and q^2.
Q, QINV, Q2 = (0, 1), (0, -1), (0, 2)


def triangle(group, k12, k13, k23):
    """Three generators; each k is a Weyl weight or a twist degree, as an
    item of ``Presentation.from_items``."""
    return Presentation.from_items(group, ("g1", "g2", "g3"),
                                   [(0, 1, k12), (0, 2, k13), (1, 2, k23)])


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def test_admissible_ta3(grp):
    p = triangle(grp, 1, Q, QINV)
    assert check_admissible(p).admissible


def test_inadmissible_case_three(grp):
    p = triangle(grp, 1, Q, Q)
    rep = check_admissible(p)
    assert not rep.admissible
    assert rep.witness == (0, 1, 2)


def test_all_weyl_admissible(grp):
    p = triangle(grp, 1, -3, 7)
    assert check_admissible(p).admissible


def test_mixed_weyl_quantum_inadmissible(grp):
    # one endpoint quantum, the other commuting: lemma forces rejection
    p = triangle(grp, 1, Q, 0)
    assert not check_admissible(p).admissible


def test_admissible_rejects_eulerian():
    p = parse_presentation("generators y, w\nrelations {\n  [w, y] = y\n}\n")
    with pytest.raises(EulerianNotSupported):
        check_admissible(p)


def test_weyl_matrix_s22():
    p = parse_presentation(S22_TEXT)  # generator order x1, y1, x2, y2
    assert p.weyl == [[0, 1, 0, 0], [-1, 0, 0, 0],
                      [0, 0, 0, 1], [0, 0, -1, 0]]


def test_weyl_matrix_quantum_zero(grp):
    p = triangle(grp, Q, Q, Q)
    assert p.weyl == [[0] * 3 for _ in range(3)]


def test_weyl_matrix_triangle_rank(grp):
    p = triangle(grp, 1, 1, 1)
    assert p.weyl == [[0, 1, 1], [-1, 0, 1], [-1, -1, 0]]
    assert il.rank(p.weyl) == 2


def test_subpresentation_examples():
    p = parse_presentation(S22_TEXT)
    qp = subpresentation(p, ["y1", "y2"])
    assert qp.gens == ("y1", "y2")
    assert qp.degrees == [[None, Q], [QINV, None]]
    single = subpresentation(p, ["y1"])
    assert single == Presentation.from_items(p.group, ("y1",), [])
    pair = subpresentation(p, ["x1", "y1"])
    assert pair.weyl[0][1] == 1  # x1 y1 = y1 x1 + 1


def test_subpresentation_empty():
    p = parse_presentation(S22_TEXT)
    with pytest.raises(Exception):
        subpresentation(p, [])


def test_admissibility_invariant_under_permutation(grp):
    rng = random.Random(23)
    kinds = [0, 1, 2, -1, Q, QINV, Q2]
    for _ in range(80):
        n = rng.randrange(3, 6)
        items = [(i, j, rng.choice(kinds))
                 for i in range(n) for j in range(i + 1, n)]
        p = Presentation.from_items(grp, tuple(f"g{k}" for k in range(n)), items)
        verdict = check_admissible(p).admissible
        order = list(range(n))
        rng.shuffle(order)
        p2 = apply_op(p, Permute(tuple(order)))
        assert check_admissible(p2).admissible == verdict


def test_scale_op(grp):
    p = triangle(grp, 2, 4, 0)
    p2 = apply_op(p, Scale(0, Fraction(1, 2)))
    assert p2.weyl[0][1] == 1
    assert p2.weyl[0][2] == 2
    with pytest.raises(OpError):
        apply_op(p, Scale(0, Fraction(1, 3)))  # weight 2/3 not integral


def test_add_multiple_op(grp):
    # g2 += 3*g3 where both relate additively to g1
    p = triangle(grp, 2, 3, 0)
    p2 = apply_op(p, AddMultiple(1, 2, 3))
    assert p2.weyl[0][1] == 2 + 3 * 3
    assert p2.weyl[1][2] == 0


def test_add_multiple_rejects_mixed(grp):
    p = triangle(grp, 0, Q, 1)
    # g1 += c*g2: g1-g3 is quantum but g2-g3 is Weyl
    with pytest.raises(OpError):
        apply_op(p, AddMultiple(0, 1, 1))


def test_quantum_weights_survive_add(grp):
    p = Presentation.from_items(grp, ("a", "b", "c", "d"), [
        (0, 1, 1), (0, 2, 2), (1, 3, Q), (2, 3, Q), (0, 3, QINV)])
    assert check_admissible(p).admissible
    p2 = apply_op(p, AddMultiple(1, 2, 5))
    assert p2.degrees[1][3] == Q
    assert p2.weyl[0][1] == 11


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
    p = Presentation.from_items(grp, ("x", "y", "z"), [item])
    sys = certified_system(p)
    ident = {g: sys.word(g) for g in p.gens}
    return (verify_homomorphism(GeneratorMap(p, sys, ident)),
            verify_homomorphism(GeneratorMap(p, sys, {**ident, **image(sys)})))


@pytest.mark.parametrize("kind", ["additive", "multiplicative",
                                  "eulerian_w_first", "eulerian_w_second"])
def test_map_breaking_one_pair_names_it(grp, kind):
    two = lambda sys, g: sys.word(g).scale(Coeff.from_rational(sys.ring, 2))
    item, image = {
        # [x, 2z] = 2 != 1
        "additive": ((0, 2, 1), lambda sys: {"z": two(sys, "z")}),
        # x z^2 = q^2 z^2 x != q z^2 x
        "multiplicative": ((0, 2, Q), lambda sys: {"z": sys.word("z", "z")}),
        # [2x, z] = 2z != z
        "eulerian_w_first": ((0, 2, None), lambda sys: {"x": two(sys, "x")}),
        # [2z, x] = 2x != x
        "eulerian_w_second": ((2, 0, None), lambda sys: {"z": two(sys, "z")}),
    }[kind]
    ok, bad = _broken(grp, item, image)
    assert ok == Verified(3)
    assert isinstance(bad, FailingRelation)
    assert bad.pair == ("x", "z")
    assert not bad.defect.is_zero()



def test_map_between_two_scalar_groups_is_refused(grp):
    """The source's twist degrees are read in the target's group, so a map
    whose source has another scalar group is refused, even where the
    relations agree."""
    text = "generators a, b\nrelations {\n  a b = q * b a\n}\n"
    src = parse_presentation("scalars { free q }\n" + text)
    sys = certified_system(parse_presentation("scalars { free p, q }\n" + text))
    with pytest.raises(GroupMismatch, match="^source and target scalar groups differ$"):
        verify_homomorphism(GeneratorMap(src, sys, {g: sys.word(g) for g in src.gens}))


def test_eulerian_item_counts_with_its_first_index(grp):
    gens = ("x", "y", "z")
    # (2, 0, None) is [z, x] = x
    sys = certified_system(Presentation.from_items(grp, gens, [(2, 0, None)]))
    comm = sys.multiply(sys.word("z"), sys.word("x")).sub(sys.multiply(sys.word("x"), sys.word("z")))
    assert comm == sys.word("x")


def test_accessors_on_a_weyl_pair():
    p = Presentation.from_items(ScalarGroup(), ("x", "y"), [(0, 1, 1)])
    assert p.twist(0, 1) is None and p.twist(1, 0) is None
    assert p.twist(0, 0) == (0,)
    assert p != "x"


def test_subpresentation_keeps_the_counting_generator():
    g = ScalarGroup()
    p = Presentation.from_items(g, ("w", "y"), [(0, 1, None)])
    assert subpresentation(p, ["w", "y"]) == p
    assert subpresentation(p, ["y", "w"]) == Presentation.from_items(g, ("y", "w"),
                                                                     [(1, 0, None)])


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
    eulerian = Presentation.from_items(ScalarGroup(), ("w", "y"), [(0, 1, None)])
    with pytest.raises(EulerianNotSupported, match="^generator changes operate on"):
        apply_op(eulerian, Permute((1, 0)))


def test_apply_op_refusals_word_for_word(grp):
    """Each refusal of a generator change, message and all."""
    s22 = parse_presentation(S22_TEXT)  # x1 x2 = q x2 x1: a quantum pair
    mixed = triangle(grp, 0, Q, 1)
    weights = triangle(grp, 2, 3, 0)
    for p, op, message in [
            (s22, Permute((0, 1, 2, 2)), "permutation is not a bijection"),
            (s22, Scale(1, Fraction(0)), "zero scale factor"),
            (weights, Scale(0, Fraction(1, 2)),
             "scaling would produce a non-integer Weyl weight"),
            (s22, AddMultiple(0, 2, 1),
             "combined generators must form a Weyl (or commuting) pair"),
            # g1 += g2: the pair (g1, g3) is quantum but (g2, g3) is Weyl
            (mixed, AddMultiple(0, 1, 1),
             "generator change mixes incompatible relations at third generator 'g3'")]:
        with pytest.raises(OpError) as err:
            apply_op(p, op)
        assert str(err.value) == message


# Drawn with a seeded generator over Z/4 x Z<q> (zeta of order 4).  A case is
# (n, items, witness).  An item (a, b, k) of ``Presentation.from_items`` reads
# g_a g_b - g_b g_a = k for an int k, and g_a g_b = zeta^t q^f g_b g_a for
# k = (t, f); absent pairs commute.  The witness is (i, j, k), the first
# violating triple in the scan order of the triangle test; then come the
# relations of (i, k) and (j, k), read (i, k) and (j, k), in the same code.
WITNESS_CASES = [
    (5, [(0, 1, 0), (3, 1, 2), (1, 4, (3, 0)), (2, 3, (0, -1)), (2, 4, (3, 0))],
     (1, 3, 2, 0, (0, 1))),
    (3, [(0, 1, (0, 1)), (0, 2, -2), (1, 2, (1, 0))], (0, 2, 1, (0, 1), (3, 0))),
    (6, [(0, 2, (0, 1)), (0, 3, (1, 0)), (1, 5, 0), (2, 3, (1, -1)), (2, 4, (1, -1)),
         (5, 2, -1), (3, 5, -2), (4, 5, (0, 1))], (2, 5, 0, (0, -1), 0)),
    (5, [(0, 1, (2, 1)), (0, 2, (1, 0)), (3, 1, -1), (1, 4, (0, -1)), (2, 4, (1, -1)),
         (3, 4, (1, -1))], (1, 3, 0, (2, -1), 0)),
    (6, [(0, 1, (0, -1)), (0, 2, (0, 1)), (0, 3, (2, 1)), (0, 4, -2), (1, 2, (0, -1)),
         (1, 3, (2, 1)), (1, 4, -2), (1, 5, 0), (2, 3, (2, 1)), (4, 2, -1), (2, 5, -2),
         (3, 4, (0, -1)), (3, 5, (3, 0)), (4, 5, (3, 0))], (0, 4, 1, (0, -1), 2)),
    (4, [(1, 0, -1), (0, 2, (2, 1)), (3, 0, 0), (1, 2, (3, 0)), (1, 3, (3, 0)),
         (2, 3, -2)], (0, 1, 2, (2, 1), (3, 0))),
    (4, [(1, 0, 2), (0, 2, (2, 1)), (1, 2, -2), (1, 3, (1, -1)), (3, 2, 0)],
     (0, 1, 2, (2, 1), -2)),
    (5, [(0, 1, (1, -1)), (0, 2, (0, 1)), (1, 2, 1), (3, 1, -1), (3, 2, 0), (2, 4, (1, 0)),
         (3, 4, (1, 0))], (1, 2, 0, (3, 1), (0, -1))),
    (6, [(0, 1, 0), (3, 0, 2), (0, 4, (2, 1)), (1, 2, (1, 0)), (1, 5, (1, -1)),
         (2, 4, (3, 0)), (2, 5, (1, 0)), (4, 5, (3, 0))], (0, 3, 4, (2, 1), 0)),
    (6, [(0, 1, (1, 0)), (0, 2, (0, -1)), (0, 5, (0, 1)), (1, 2, 0), (1, 4, -2),
         (1, 5, (0, 1)), (2, 3, (2, 1)), (2, 4, (2, 1)), (2, 5, (1, -1)), (3, 4, (0, -1)),
         (5, 3, 0)], (1, 4, 0, (3, 0), 0)),
    (6, [(0, 1, (0, 1)), (0, 2, (0, -1)), (0, 3, (0, 1)), (0, 4, 1), (5, 0, 0),
         (1, 2, (3, 0)), (1, 3, (1, 0)), (1, 4, (1, 0)), (1, 5, (1, 0)), (2, 4, (1, -1)),
         (4, 3, 2), (3, 5, 0), (4, 5, (3, 0))], (0, 4, 1, (0, 1), (3, 0))),
    (6, [(0, 1, (0, -1)), (0, 2, (2, 1)), (0, 4, (0, 1)), (0, 5, (1, 0)), (1, 2, -2),
         (1, 3, (1, 0)), (1, 4, 1), (1, 5, (0, 1)), (2, 4, (0, -1)), (2, 5, (2, 1)),
         (3, 4, (1, 0)), (4, 5, (1, 0))], (1, 2, 0, (0, 1), (2, -1))),
]


def test_the_triangle_test_names_the_first_violation_in_scan_order():
    g = ScalarGroup(4, ("q",), "zeta")
    for n, items, (i, j, k, ik, jk) in WITNESS_CASES:
        p = Presentation.from_items(g, tuple(f"g{t}" for t in range(n)), items)
        assert check_admissible(p) == (False, (i, j, k))
        assert [p.degrees[i][k] or p.weyl[i][k], p.degrees[j][k] or p.weyl[j][k]] == [ik, jk]
