import random

import pytest

from qwalg import intlattice as il
from qwalg.mixed import (Equivalent, InadmissiblePresentation,
                         Inconclusive, MixedWeylField, NotEquivalent,
                         center_lattices, cross_equivalence_necessary,
                         equivalence_decide, eulerian_presentation, invariants,
                         mixed_weyl_invariants, reduce_to_canonical)
from qwalg.presentation import Presentation, apply_certificate, check_admissible
from qwalg.qwa import parse_presentation
from qwalg.scalars import GroupMismatch, ScalarGroup
from qwalg.torus import TorusError

from support import canonical, degrees, scramble


def matrices(p):
    """The relations of a quantum/Weyl presentation, its names left out."""
    return p.weyl, p.degrees


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def s22(grp, power=1):
    q = grp.free_gen("q", power)
    one = grp.one()
    return canonical(grp, 2, 2, [[one, q], [q.inv(), one]])


def s21(grp):
    q = grp.free_gen("q")
    one = grp.one()
    return canonical(grp, 2, 1, [[one, q], [q.inv(), one]])


def test_reduce_weyl_triangle(grp):
    p = parse_presentation("""
generators a, b, c
relations {
  a b = b a + 1
  a c = c a + 1
  b c = c b + 1
}
""")
    algebra, cert = reduce_to_canonical(p)
    assert (algebra.n, algebra.r) == (2, 1)
    assert all(s.is_one() for row in algebra.lam for s in row)
    assert matrices(apply_certificate(p, cert.ops)) == matrices(algebra.to_presentation())


def test_reduce_already_canonical(grp):
    algebra = s22(grp)
    p = algebra.to_presentation()
    out, cert = reduce_to_canonical(p)
    assert out == algebra
    assert len(cert.ops) == 1  # only the final ordering permutation


def test_reduce_gcd_weights(grp):
    # one vertex Weyl-tied to two others with weights 2 and 3, plus a spectator
    p = Presentation.from_items(grp, ("a", "b", "c", "d"), [(0, 1, 2), (0, 2, 3)])
    algebra, cert = reduce_to_canonical(p)
    assert algebra.n + algebra.r == 4
    assert 2 * algebra.r == il.rank(p.weyl)
    assert algebra.r == 1
    assert matrices(apply_certificate(p, cert.ops)) == matrices(algebra.to_presentation())


def test_reduce_rejects_inadmissible(grp):
    q = grp.free_gen("q").degree()
    p = Presentation.from_items(grp, ("a", "b", "c"), [(0, 1, 1), (0, 2, q), (1, 2, q)])
    with pytest.raises(InadmissiblePresentation):
        reduce_to_canonical(p)


def test_reduce_random_scrambles(grp):
    rng = random.Random(41)
    q = grp.free_gen("q")
    one = grp.one()
    for _ in range(30):
        n = rng.randrange(1, 4)
        r = rng.randrange(0, n + 1)
        lam = [[one for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = q.pow(rng.randrange(-2, 3))
                lam[i][j] = w
                lam[j][i] = w.inv()
        algebra = canonical(grp, n, r, lam)
        p = scramble(algebra.to_presentation(), rng)
        assert check_admissible(p).admissible
        out, cert = reduce_to_canonical(p)
        assert (out.n, out.r) == (n, r)
        assert matrices(apply_certificate(p, cert.ops)) == matrices(out.to_presentation())
        # invariants of the reduction do not depend on the scramble
        assert invariants(out).g_subgroup == invariants(algebra).g_subgroup


def test_a_lambda_that_is_not_n_by_n_is_refused(grp):
    """n = 2 with a 1 x 1 Lambda (whose presentation would index past it)
    and n = 1 with a 2 x 2 one (whose invariants would be those of a
    two-generator torus) are refused, as ``QuantumWeylAlgebra`` refuses them.
    Lambda is checked as a torus first, so a ragged one is not square."""
    one = grp.one()
    with pytest.raises(ValueError, match=r"^Lambda must be 2 x 2$"):
        canonical(grp, 2, 1, [[one]])
    with pytest.raises(ValueError, match=r"^Lambda must be 1 x 1$"):
        canonical(grp, 1, 1, s22(grp).lam)
    with pytest.raises(TorusError, match=r"^weight matrix must be square$"):
        canonical(grp, 2, 1, [[one, one], [one]])


def test_eulerian_presentation_shapes(grp):
    one = grp.one()
    u = eulerian_presentation(canonical(grp, 1, 1, [[one]]))
    assert u.gens == ("y1", "w1")
    assert u.eulerian == {(0, 1): 1}
    torus_only = eulerian_presentation(canonical(
        grp, 2, 0, [[one, grp.free_gen("q")], [grp.free_gen("q").inv(), one]]))
    assert torus_only.gens == ("y1", "y2")
    t21 = eulerian_presentation(s21(grp))
    assert t21.gens == ("y1", "y2", "w1")
    assert t21.eulerian == {(0, 2): 2}
    assert not any(t21.twist(1, 2))  # w1 commutes with y2


def test_invariants_s22(grp):
    inv = invariants(s22(grp))
    assert inv.gk_dim == 4 and inv.gk_trdeg == 4
    assert inv.w_supdeg == 4
    assert inv.e_is_field
    assert inv.g_subgroup.free_basis == ((1,),)
    assert inv.center_rank == 0
    assert inv.torus_simple


def test_invariants_commutative(grp):
    one = grp.one()
    s = canonical(grp, 3, 0, [[one] * 3 for _ in range(3)])
    inv = invariants(s)
    assert not inv.e_is_field
    assert inv.g_subgroup.is_trivial()
    assert inv.center_rank == 3


def test_invariants_weyl_over_poly(grp):
    one = grp.one()
    n, r = 4, 2
    s = canonical(grp, n, r, [[one] * n for _ in range(n)])
    inv = invariants(s)
    # center of the Weyl algebra over a polynomial ring: the free variables
    assert inv.center_rank == n - r
    basis = [list(v) for v in inv.center_basis]
    assert all(v[:r] == [0] * r for v in basis)


def test_mixed_weyl_invariants_pair(grp):
    q = grp.free_gen("q")
    f = MixedWeylField(grp, 1, 2, 0, degrees((q, q)))
    fp = MixedWeylField(grp, 2, 1, 0, degrees((q,)))
    i1, i2 = mixed_weyl_invariants(f), mixed_weyl_invariants(fp)
    assert i1.gk_trdeg == i2.gk_trdeg == 6
    assert i1.center_rank == i2.center_rank == 0
    assert (i1.w_infdeg, i2.w_infdeg) == (2, 4)
    assert (i1.w_supdeg, i2.w_supdeg) == (2, 4)


def test_mixed_weyl_invariants_edge_cases(grp):
    assert mixed_weyl_invariants(MixedWeylField(grp, 0, 0, 3, ())) == \
        mixed_weyl_invariants(MixedWeylField(grp, 0, 0, 3, ()))
    inv = mixed_weyl_invariants(MixedWeylField(grp, 0, 0, 2, ()))
    assert (inv.gk_trdeg, inv.w_infdeg, inv.w_supdeg, inv.center_rank) == (2, 0, 0, 2)
    g2 = ScalarGroup(2, (), "zeta")
    inv2 = mixed_weyl_invariants(MixedWeylField(g2, 0, 1, 0, degrees((g2.scalar(torsion=1),))))
    assert inv2.center_rank == 1  # -1 is pure torsion


def test_mixed_weyl_rejects_weight_one(grp):
    with pytest.raises(ValueError):
        MixedWeylField(grp, 0, 1, 0, degrees((grp.one(),)))


def test_equivalence_self(grp):
    v = equivalence_decide(s22(grp), s22(grp))
    assert isinstance(v, Equivalent)
    assert v.reason == "EQ_SEMICLASSICAL"
    assert [list(r) for r in v.h] == il.identity(2)


def test_equivalence_q_vs_q2(grp):
    v = equivalence_decide(s22(grp), s22(grp, power=2))
    assert isinstance(v, NotEquivalent)
    # the derived-unit subgroups <q> vs <q^2> already separate these
    assert v.reason in ("NEQ_G", "NEQ_TORUS")


def test_equivalence_r_differs(grp):
    v = equivalence_decide(s21(grp), s22(grp))
    assert isinstance(v, NotEquivalent)
    assert v.reason == "NEQ_WSUPDEG"


def test_equivalence_gk_differs(grp):
    one = grp.one()
    q = grp.free_gen("q")
    a = canonical(grp, 2, 1, [[one, q], [q.inv(), one]])
    lam3 = [[one, q, one], [q.inv(), one, one], [one, one, one]]
    b = canonical(grp, 3, 1, lam3)
    v = equivalence_decide(a, b)
    assert isinstance(v, NotEquivalent) and v.reason == "NEQ_GK"


def test_equivalence_divisor_mutation(grp):
    q = grp.free_gen("q")
    one = grp.one()

    def from_skew(c):
        n = len(c)
        return canonical(
            grp, n, n, [[q.pow(c[i][j]) for j in range(n)] for i in range(n)])

    c1 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 2], [0, 0, -2, 0]]
    c2 = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 4], [0, 0, -4, 0]]
    v = equivalence_decide(from_skew(c1), from_skew(c2))
    assert isinstance(v, NotEquivalent)
    assert v.reason == "NEQ_TORUS"  # same gcd, different divisor chain


def test_equivalence_nonsemiclassical_inconclusive(grp):
    a = s21(grp)
    v = equivalence_decide(a, a)
    assert isinstance(v, Inconclusive)


def test_equivalence_commutative_weyl(grp):
    one = grp.one()
    a = canonical(grp, 2, 2, [[one, one], [one, one]])
    v = equivalence_decide(a, a)
    assert isinstance(v, Equivalent)


def test_equivalence_symmetric(grp):
    cases = [(s22(grp), s22(grp, power=2)), (s21(grp), s22(grp)),
             (s22(grp), s22(grp)), (s21(grp), s21(grp))]
    for a, b in cases:
        va, vb = equivalence_decide(a, b), equivalence_decide(b, a)
        assert type(va) is type(vb)
        if isinstance(va, NotEquivalent):
            assert va.reason == vb.reason


def test_reduce_preserves_rational_invariants(grp):
    rng = random.Random(47)
    base = s22(grp)
    inv0 = invariants(base)
    for _ in range(10):
        p = scramble(base.to_presentation(), rng)
        out, _ = reduce_to_canonical(p)
        inv = invariants(out)
        assert (inv.gk_dim, inv.w_supdeg, inv.e_is_field) == \
            (inv0.gk_dim, inv0.w_supdeg, inv0.e_is_field)
        assert inv.g_subgroup == inv0.g_subgroup
        assert inv.center_rank == inv0.center_rank
        assert inv.torus_simple == inv0.torus_simple


def test_cross_equivalence_s22_chain(grp):
    q = grp.free_gen("q")
    a = s22(grp)
    # gk forces 2m+2n+t = 4; w-supdeg forces m = 2; then G separates
    assert cross_equivalence_necessary(a, MixedWeylField(grp, 1, 1, 0, degrees((q,)))).reason \
        == "NEQ_WSUPDEG"
    assert cross_equivalence_necessary(a, MixedWeylField(grp, 2, 1, 0, degrees((q,)))).reason \
        == "NEQ_GK"
    v = cross_equivalence_necessary(a, MixedWeylField(grp, 2, 0, 0, ()))
    assert isinstance(v, NotEquivalent) and v.reason == "NEQ_G"


def test_cross_equivalence_weyl_inconclusive(grp):
    one = grp.one()
    a = canonical(grp, 2, 2, [[one, one], [one, one]])  # A_2
    v = cross_equivalence_necessary(a, MixedWeylField(grp, 2, 0, 0, ()))
    assert isinstance(v, Inconclusive)


def test_cross_equivalence_quantum_plane_field(grp):
    q = grp.free_gen("q")
    one = grp.one()
    a = canonical(grp, 2, 0, [[one, q], [q.inv(), one]])
    v = cross_equivalence_necessary(a, MixedWeylField(grp, 0, 1, 0, degrees((q,))))
    assert isinstance(v, Inconclusive)


def test_cross_equivalence_refuses_a_field_over_another_group(grp):
    """The quantum plane over Z<q> against the field of its plane over
    Z<q, p>: G compares subgroups of one declared group, so the pair is
    refused, as ``equivalence_decide`` refuses one, and not separated by
    NEQ_G.  Over Z<q> the same data is inconclusive."""
    q, wide = grp.free_gen("q"), ScalarGroup(1, ("q", "p"))
    a = canonical(grp, 2, 0, [[grp.one(), q], [q.inv(), grp.one()]])
    field = MixedWeylField(wide, 0, 1, 0, degrees([wide.free_gen("q")]))
    with pytest.raises(GroupMismatch, match="^algebra and field must share a scalar group$"):
        cross_equivalence_necessary(a, field)
    same = MixedWeylField(grp, 0, 1, 0, degrees([q]))
    assert isinstance(cross_equivalence_necessary(a, same), Inconclusive)


def test_center_sublattice_matches_lattice_intersection():
    # the echelon rows with zero Weyl-paired entries span the part of the
    # central lattice on the coordinates k >= r
    rng = random.Random(12)
    nonzero = 0
    for _ in range(300):
        e = rng.choice((1, 2, 3, 4, 6, 12))
        g = ScalarGroup(e, ("q", "p")[:rng.randrange(3)], "zeta" if e > 1 else None)
        n = rng.randrange(1, 6)
        lam = [[g.one() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = g.scalar(rng.randrange(e), [rng.randrange(-2, 3) for _ in range(g.rank)])
                lam[i][j], lam[j][i] = w, w.inv()
        s = canonical(g, n, rng.randrange(n + 1), lam)
        full, center = center_lattices(s)
        coord = il.identity(n)[s.r:]
        assert center == (il.lattice_intersect(full, coord, n) if coord else [])
        nonzero += bool(center) and len(center) < len(full)
    assert nonzero > 10


def test_refusals_of_malformed_algebras_and_fields():
    g, gp = ScalarGroup(1, ("q",)), ScalarGroup(1, ("p",))
    with pytest.raises(ValueError, match=r"^need n >= 1 and 0 <= r <= n$"):
        canonical(g, 1, 2, [[g.one()]])
    with pytest.raises(ValueError, match="^inconsistent mixed Weyl data$"):
        MixedWeylField(g, 0, 1, 0, ())
    with pytest.raises(ValueError, match="^plane weight outside the declared group$"):
        MixedWeylField(g, 0, 1, 0, [(0, 1, 0)])  # a degree of Z^2
    a, b = (canonical(h, 1, 0, [[h.one()]]) for h in (g, gp))
    with pytest.raises(ValueError, match="^algebras must share a scalar group$"):
        equivalence_decide(a, b)
    assert a != "y1"


# Weyl graphs over Z<q> on n generators, the last one commuting with all: an
# item (a, b, c) reads g_a g_b - g_b g_a = c.  Each reduction is pinned by its
# certificate, its pairing and (n, r) of the canonical algebra.
CERTIFICATE_CASES = [
    (4, [(0, 1, 1), (1, 2, -2)], "add(2,0,-2);permute(1,2,3,0)", (("g0", "g1"),), 3, 1),
    (5, [(0, 1, 3), (0, 2, 2), (0, 3, -2), (1, 2, -2), (2, 3, 3)],
     "scale(1,-1);add(1,3,-2);add(3,1,2);add(2,1,-2);add(2,0,8);scale(3,1/13);"
     "permute(1,2,4,0,3)", (("g0", "g1"), ("g3", "g2")), 3, 2),
    (5, [(0, 2, 2), (0, 3, -3), (1, 2, 3), (1, 3, 0), (2, 3, -3)],
     "scale(2,-1);add(2,3,-1);add(3,2,3);add(1,0,3);add(3,0,3);scale(3,1/9);"
     "permute(2,1,4,0,3)", (("g0", "g2"), ("g3", "g1")), 3, 2),
    (6, [(0, 2, 1), (0, 3, -3), (0, 4, -3), (1, 2, 2), (1, 3, -1), (2, 4, 2), (3, 4, 3)],
     "add(4,2,3);add(3,2,3);add(1,0,-2);add(4,0,2);scale(3,-1);add(3,4,1);add(4,3,-6);"
     "add(4,1,-9);permute(2,3,4,5,0,1)", (("g0", "g2"), ("g1", "g3")), 4, 2),
]


@pytest.mark.parametrize("n, items, ops, pairing, out_n, out_r", CERTIFICATE_CASES)
def test_weyl_graph_certificates_are_pinned(grp, n, items, ops, pairing, out_n, out_r):
    p = Presentation.from_items(grp, tuple(f"g{k}" for k in range(n)), items)
    algebra, cert = reduce_to_canonical(p)
    assert (cert.describe(), cert.pairing, algebra.n, algebra.r) == (ops, pairing, out_n, out_r)
