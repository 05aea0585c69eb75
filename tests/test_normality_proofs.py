"""Normality scalars read off the proofs of the base certification.

The base system of a quantum Weyl algebra proves, while it certifies the
overlaps x_(i+1) y_(i+1) g, that z_i g = mu g z_i for every letter g of an
index up to i: a right-side remainder of g that reduced to zero.  A letter
whose degrees over z_i's normal form in the extension give no scalar reads
it off that remainder index in the base, z_i g != 0 is shown by moving g
through the words of z_i, and the two products are reduced, in the base,
only where no proof matches (the last index).  Every scalar, twist table
and relation count must equal a reference that takes the two products in
each extension; a proof is read only for its own terms, on its own side,
and a matched proof still needs a non-zero product.
"""
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings, strategies as st

from qwalg.cyclo import Coeff
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed
from qwalg.rewrite import Element, NotNormalError, ReductionSystem, Rule, _terms_key
from qwalg.scalars import ScalarGroup

from support import qweyl_algebra, reference_commutation


@contextmanager
def patched(name: str, value):
    real = getattr(ReductionSystem, name)
    setattr(ReductionSystem, name, value)
    try:
        yield real
    finally:
        setattr(ReductionSystem, name, real)


def product_commutation(self, nf, el):
    """The reference: both products for every letter, in this system."""
    scalars = reference_commutation(self, nf)
    return None if scalars is None else [s.degree() for s in scalars.values()]


def localized(a: QuantumWeylAlgebra, reference: bool):
    """(normal_scalars, twist table of each extension, relations_checked)
    of a fresh copy of a, with the engine's scalars or the reference's."""
    a = QuantumWeylAlgebra(a.group, a.n, a.qs, a.lam)
    tables = []
    with patched("adjoin_inverse", None) as real:
        def adjoin(self, el, label):
            ext, label = real(self, el, label)
            tables.append(dict(ext.twists))
            return ext, label
        ReductionSystem.adjoin_inverse = adjoin
        if reference:
            with patched("_commutation", product_commutation):
                res = localize_to_mixed(a)
        else:
            res = localize_to_mixed(a)
    return res.normal_scalars, tables, res.relations_checked


@st.composite
def quantum_weyl(draw, n=None, quantum=None):
    """e in {1, 2, 3, 4, 12}, one or two free symbols, n <= 5 and any set
    of quantum indices, the all-quantum ones and a quantum last index
    among them."""
    e = draw(st.sampled_from((1, 2, 3, 4, 12)))
    syms = ("q", "p")[:draw(st.integers(1, 2))]
    g = ScalarGroup(e, syms, "zeta" if e > 1 else None)
    n = n or draw(st.integers(1, 5))
    if quantum is None:
        quantum = draw(st.sets(st.integers(0, n - 1), min_size=1))
    scalars = st.builds(lambda t, f: g.scalar(t, f), st.integers(0, e - 1),
                        st.tuples(*(st.integers(-2, 2) for _ in syms)))
    # q_i != 1: a drawn 1 becomes q.
    qs = tuple(draw(scalars.map(lambda s: g.scalar(0, (1,) + (0,) * (len(syms) - 1))
                                if s.is_one() else s)) if i in quantum else g.one()
               for i in range(n))
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(scalars)
            lam[j][i] = lam[i][j].inv()
    return qweyl_algebra(g, n, qs, lam)


def algebra(e, syms, qs, lam):
    g = ScalarGroup(e, syms, "zeta" if e > 1 else None)
    n = len(qs)
    return qweyl_algebra(g, n, [g.scalar(*s) for s in qs],
                         [[g.scalar(*lam[i][j]) if i < j else g.scalar(*lam[j][i]).inv()
                           if i > j else g.one() for j in range(n)] for i in range(n)])


ALL_QUANTUM_4 = algebra(12, ("q",), [(1, (1,)), (5, (0,)), (0, (-1,)), (3, (2,))],
                        [[None, (1, (1,)), (4, (0,)), (0, (-1,))], [None, None, (7, (2,)), (2, (1,))],
                         [None, None, None, (11, (0,))]])
ALL_QUANTUM_5 = algebra(4, ("q", "p"), [(1, (1, 0)), (0, (0, 1)), (2, (1, -1)), (3, (0, 2)),
                                        (1, (-1, 0))],
                        [[None, (1, (0, 1)), (0, (1, 0)), (2, (0, 0)), (3, (1, 1))],
                         [None, None, (0, (0, -1)), (1, (2, 0)), (0, (1, 0))],
                         [None, None, None, (3, (0, 1)), (2, (-1, 0))],
                         [None, None, None, None, (1, (1, -1))]])


@settings(max_examples=150, deadline=None)
@given(quantum_weyl())
@example(ALL_QUANTUM_4)
@example(ALL_QUANTUM_5)
def test_localization_matches_the_products_in_each_extension(a):
    assert localized(a, False) == localized(a, True)


def test_no_extension_reduces_a_normality_product():
    """All-quantum at n = 4, 5: every product is reduced in the base, and
    only for the last index; with every quantum index below n, none is."""
    below = algebra(1, ("q", "p"), [(0, (1, 0)), (0, (0, 1)), (0, (2, 0)), (0, (0, 0))],
                    [[None, (0, (1, 0)), (0, (0, 1)), (0, (0, 0))],
                     [None, None, (0, (0, -1)), (0, (1, 0))], [None, None, None, (0, (-1, 0))]])
    for a, last in ((ALL_QUANTUM_4, 3), (ALL_QUANTUM_5, 4), (below, None)):
        seen = []
        with patched("_product_degree", None) as real:
            def product(self, g, nf):
                seen.append((self._base, max(h for t in nf.terms for h in t) // 2))
                return real(self, g, nf)
            ReductionSystem._product_degree = product
            localize_to_mixed(a)
        assert {index for _, index in seen} == ({last} if last is not None else set())
        assert all(base is None for base, _ in seen)


def two_index():
    """n = 2, q = (q, p): z_1 and its base system."""
    a = algebra(1, ("q", "p"), [(0, (1, 0)), (0, (0, 1))], [[None, (0, (1, 1))]])
    s = a.system()
    return a, s, a.z_element(s, 0)


def test_a_proof_is_read_only_for_its_own_terms():
    """Same words as z_1, other coefficients: the scalars come from the two
    products.  1 + q y1 x1 is not normal, in the base and after z_1 is
    inverted, and ``adjoin_inverse`` refuses it with the same message."""
    a, s, z = two_index()
    y1 = s.index("y1")
    assert s._proven_degree(y1, z) is not None
    ring = s.ring
    for c in (Coeff.from_rational(ring, 2), Coeff.of_degree(ring, (0, 1, 0))):
        el = z.scale(c)
        assert el.terms.keys() == z.terms.keys()
        assert s._proven_degree(y1, el) is None
        assert s.commutation_with_generators(el) == reference_commutation(s, el)
        assert s.commutation_with_generators(el) == s.commutation_with_generators(z)
    q = Coeff.of_degree(ring, (0, 1, 0))
    other = Element(ring, {(): Coeff.one(ring), (y1, s.index("x1")): q})
    assert other.terms.keys() == z.terms.keys()
    ext, _ = s.adjoin_inverse(z, "z1^-1")
    for sys in (s, ext):
        assert sys.commutation_with_generators(other) is None
        assert reference_commutation(sys, other) is None
        with pytest.raises(NotNormalError, match="^element does not commute with every "
                                                 "generator up to a scalar$"):
            sys.adjoin_inverse(other, "w^-1")


def test_a_proof_is_read_only_on_its_own_side():
    """The right remainder of y1 proved for z_1 with nu does not make the
    left one with the same nu vanish."""
    a, s, z = two_index()
    y1, rest = s.index("y1"), list(z.terms.items())
    nu = s._remainders[False, y1, _terms_key(rest)]
    assert nu != s.group.inverse_degree(nu)
    assert s._remainder_vanishes(y1, nu, rest, False)
    assert not s._remainder_vanishes(y1, nu, rest, True)


def proved_zero_divisor():
    """u g -> g, g u -> g and B A -> A B + 1 - u, with A, B and C
    commuting with g and u except C g = q g C: the overlap B A g leaves the
    remainder -(u g - g u), which vanishes, so (1 - u) g = g (1 - u) is
    proved; but (1 - u) g = 0."""
    group = ScalarGroup(1, ("q",))
    g, u, A, B, C = range(5)
    ring = ReductionSystem(group, (), []).ring
    one = Coeff.one(ring)
    rules = [Rule((u, g), Element(ring, {(g,): one})), Rule((g, u), Element(ring, {(g,): one})),
             Rule((A, g), (0, 0)), Rule((B, g), (0, 0)), Rule((C, g), (0, 1)),
             Rule((A, u), (0, 0)), Rule((B, u), (0, 0)), Rule((C, u), (0, 0)),
             Rule((C, A), (0, 0)), Rule((C, B), (0, 0)),
             Rule((B, A), Element(ring, {(A, B): one, (): one, (u,): one.neg()}))]
    s = ReductionSystem(group, ("g", "u", "A", "B", "C"), rules)
    assert s.certify()
    assert s._remainders == {(False, g, _terms_key([((u,), one.neg())])): (0, 0)}
    return s


def test_a_proven_scalar_needs_a_non_zero_product():
    """1 - u matches the proof, but (1 - u) g = 0: it is not normal.  2 - 2u
    misses the proof, and its first product is zero."""
    s = proved_zero_divisor()
    g, nf = s.index("g"), s.one().sub(s.word("u"))
    assert s._proven_degree(g, nf) == (0, 0)
    assert s._reduce_terms(nf.concat(s.word("g")).terms).is_zero()
    twice = nf.scale(Coeff.from_rational(s.ring, 2))
    assert s._proven_degree(g, twice) is None and s._product_degree(g, twice) is None
    for el in (nf, twice):
        assert s.commutation_with_generators(el) is None
        with pytest.raises(NotNormalError, match="^element does not commute"):
            s.adjoin_inverse(el, "w^-1")


def test_a_proof_needs_the_other_words_to_twist_by_its_scalar():
    """C - u holds the proof's terms, but C twists g by q^-1, not by 1:
    nothing is read off the proof, and C - u is not normal."""
    s = proved_zero_divisor()
    g, el = s.index("g"), s.word("C").sub(s.word("u"))
    assert s._proven_degree(g, el) is None
    assert s.commutation_with_generators(el) is None
    assert reference_commutation(s, el) is None


def test_a_walk_passes_only_twist_rules():
    """h g -> g and g h' -> g, with h' < g < h, are not twists, so g moves
    through nf = (1 - h')(1 - h) from neither side: the overlap B A g
    proves nf g = g nf, but both are zero, and nf is not normal."""
    group = ScalarGroup(1, ("q",))
    h1, g, h, A, B = range(5)
    ring = ReductionSystem(group, (), []).ring
    one = Coeff.one(ring)
    nf_terms = {(): one, (h,): one.neg(), (h1,): one.neg(), (h1, h): one}
    rules = [Rule((h, g), Element(ring, {(g,): one})), Rule((g, h1), Element(ring, {(g,): one})),
             Rule((h, h1), (0, 0)), Rule((B, A), Element(ring, {(A, B): one, **nf_terms}))]
    rules += [Rule((x, y), (0, 0)) for x in (A, B) for y in (h1, g, h)]
    s = ReductionSystem(group, ("h'", "g", "h", "A", "B"), rules)
    assert s.certify()
    nf = Element(ring, nf_terms)
    assert s._proven_degree(g, nf) == (0, 0)
    assert s._reduce_terms(nf.concat(s.word("g")).terms).is_zero()
    assert s.commutation_with_generators(nf) is None
    assert reference_commutation(s, nf) is None
