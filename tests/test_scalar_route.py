"""The degree route against the ``Scalar`` route it replaced.

A scalar parameter is held as its degree (torsion mod e, then the free
exponents) from the text reader to the printed answer.  This module keeps a
copy of the route that held ``Scalar`` matrices: the block matrix of a
localization, built entry by entry with ``Scalar.inv`` and permuted into the
canonical order, and the subgroup G read off ``Scalar`` rows.  Drawn quantum
Weyl algebras, under every pattern of quantum indices, go through both
routes, which must give the same torus exponents, central lattices, G and
quantum Weyl invariants.
"""
import itertools

from hypothesis import given, settings, strategies as st

from qwalg import intlattice as il
from qwalg.mixed import CanonicalMixedAlgebra, center_lattices, g_invariant
from qwalg.qweyl import localized_lambda, qweyl_invariants
from qwalg.scalars import ScalarGroup, SubgroupDescription

from support import qweyl_algebra, torus


# -- the Scalar route --------------------------------------------------------------


def scalar_block(group, qs, lam, weyl, quantum):
    """[[1, M], [M', Lambda]] in the block order (z'-block, y-block), M
    carrying q_i against y_i for the k-th quantum index i and M' its
    inverse transposed, then permuted: the Weyl-paired y's, the z'-block,
    the quantum y's."""
    nz, one = len(quantum), group.one()
    block = [[one] * (nz + len(lam)) for _ in quantum] + [[one] * nz + list(row) for row in lam]
    for k, i in enumerate(quantum):
        block[k][nz + i], block[nz + i][k] = qs[i], qs[i].inv()
    perm = [nz + j for j in weyl] + list(range(nz)) + [nz + i for i in quantum]
    return [[block[i][j] for j in perm] for i in perm]


def scalar_subgroup(group, lam) -> SubgroupDescription:
    """G of the weights above the diagonal: the Hermite form of their rows
    (free exponents, then torsion) with the relation row (0, ..., 0, e)."""
    e, m, n = group.torsion_order, group.rank, len(lam)
    rows = [list(w.free) + [w.torsion] for i in range(n) for w in lam[i][i + 1:]]
    full = tuple(tuple(r) for r in il.hermite_nf(rows + [[0] * m + [e]]) if any(r))
    return SubgroupDescription(e // full[-1][m], tuple(r[:m] for r in full[:-1]), full)


# -- drawn parameters --------------------------------------------------------------


@st.composite
def parameters(draw):
    """(group, n, q_i != 1 for every index, Lambda) as ``Scalar``s over
    Z/e x Z^m, e in {1, 2, 3, 4, 12}, m in {1, 2} and n <= 6."""
    e = draw(st.sampled_from((1, 2, 3, 4, 12)))
    g = ScalarGroup(e, ("q", "p")[:draw(st.integers(1, 2))], "zeta" if e > 1 else None)
    scalars = st.builds(g.scalar, st.integers(0, e - 1),
                        st.tuples(*[st.integers(-2, 2)] * g.rank))
    n = draw(st.integers(1, 6))
    qs = [draw(scalars.filter(lambda s: not s.is_one())) for _ in range(n)]
    lam = [[g.one()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = draw(scalars)
            lam[j][i] = lam[i][j].inv()
    return g, n, qs, lam


@settings(max_examples=60, deadline=None)
@given(parameters())
def test_every_quantum_pattern_localizes_alike_on_both_routes(drawn):
    """Under each set of quantum indices (q_i = 1 off it), the block torus
    of ``localized_lambda`` has the exponents of the ``Scalar`` block, and
    the central lattices, G and the quantum Weyl invariants agree."""
    g, n, drawn_qs, lam = drawn
    for pattern in itertools.product((False, True), repeat=n):
        qs = [q if quantum else g.one() for q, quantum in zip(drawn_qs, pattern)]
        a = qweyl_algebra(g, n, qs, lam)
        weyl, quantum = a.weyl_indices, a.quantum_indices
        assert weyl == [i for i in range(n) if not pattern[i]]
        block = scalar_block(g, qs, lam, weyl, quantum)
        ref = CanonicalMixedAlgebra(g, len(block), len(weyl), torus(g, block))
        got = localized_lambda(a)
        assert (got.n, got.r) == (ref.n, ref.r)
        assert got.torus().exponents == ref.torus().exponents
        assert got.lam == block
        assert center_lattices(got) == center_lattices(ref)
        assert g_invariant(got) == scalar_subgroup(g, block)
        applicable = all(q.is_one() or any(q.free) for q in qs)
        center = center_lattices(ref)[1]
        assert qweyl_invariants(a) == (2 * n, 2 * len(weyl),
                                       not center if applicable else None)


@settings(max_examples=100, deadline=None)
@given(parameters())
def test_g_is_read_off_degrees_as_off_scalar_rows(drawn):
    """G of the algebra (n, r, Lambda) itself, for every r."""
    g, n, _, lam = drawn
    t = torus(g, lam)
    for r in range(n + 1):
        assert g_invariant(CanonicalMixedAlgebra(g, n, r, t)) == scalar_subgroup(g, lam)
