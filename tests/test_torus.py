import itertools
import random

import pytest

from qwalg import intlattice as il
from qwalg.cli import _load
from qwalg.mixed import reduce_to_canonical
from qwalg.presentation import Additive, Eulerian, Multiplicative, Presentation
from qwalg.scalars import GroupMismatch, ScalarGroup
from qwalg.torus import (Iso, NotApplicable, NotIso, QuantumTorus, TorusError,
                         TorusMorphism, Violation, central_lattice, check_morphism, compose,
                         is_isomorphism, is_simple, uniparameter_exponents,
                         uniparameter_iso_decide)
from support import (corpus, full_congruence, lattice_member, random_antisymmetric,
                     random_unimodular)


def is_central(t, alpha):
    """prod_i lambda_{i,j}^alpha_i = 1 for every j, by scalar products."""
    for j in range(t.n):
        acc = t.group.one()
        for i in range(t.n):
            if alpha[i]:
                acc = acc.mul(t.lam[i][j].pow(alpha[i]))
        if not acc.is_one():
            return False
    return True


def brute_force_central(t, box=5):
    """Independent enumeration of central monomial exponents in a box."""
    return [list(alpha) for alpha in itertools.product(range(-box, box + 1), repeat=t.n)
            if any(alpha) and is_central(t, alpha)]


def pullback_weight(dst, h, i, j):
    """prod_{k,t} lambda'_{k,t}^(h_{k,i} h_{t,j}), by scalar products."""
    acc = dst.group.one()
    for k in range(dst.n):
        for t in range(dst.n):
            acc = acc.mul(dst.lam[k][t].pow(h[k][i] * h[t][j]))
    return acc


def scalar_violation(src, dst, h):
    """The first pair i < j whose weight equation fails, else None."""
    for i in range(src.n):
        for j in range(i + 1, src.n):
            if pullback_weight(dst, h, i, j) != src.lam[i][j]:
                return Violation(i, j)
    return None


def random_group(rng):
    e = rng.choice((1, 2, 3, 4, 6, 12))
    return ScalarGroup(e, ("p", "q")[:rng.randrange(3)], "zeta" if e > 1 else None)


def random_torus(rng, g, n):
    """Weights with torsion and free parts; about half the pairs commute."""
    one = g.one()
    lam = [[one] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                w = g.scalar(rng.randrange(g.torsion_order),
                             tuple(rng.randrange(-2, 3) for _ in range(g.rank)))
                lam[i][j], lam[j][i] = w, w.inv()
    return QuantumTorus(g, lam)


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def uni(grp, exps):
    return QuantumTorus.uniparameter(grp, "q", exps)


def test_validation(grp):
    q = grp.free_gen("q")
    with pytest.raises(TorusError):
        QuantumTorus(grp, [[grp.one(), q], [q, grp.one()]])  # not antisymmetric
    with pytest.raises(TorusError):
        QuantumTorus(grp, [[q]])  # diagonal not 1


def random_presentation(rng, g, n):
    """Quantum relations in random orientations, some of weight 1, with
    torsion and negative free exponents."""
    items = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                w = g.scalar(rng.randrange(g.torsion_order),
                             tuple(rng.randrange(-3, 4) for _ in range(g.rank)))
                items.append((i, j, Multiplicative(w)) if rng.random() < 0.5
                             else (j, i, Multiplicative(w)))
    rng.shuffle(items)
    return Presentation.build(g, [f"y{k}" for k in range(n)], items)


def test_from_presentation_matches_validated_path():
    """Exponents read straight off the relations agree with the checked
    constructor on the scalar matrix of the presentation's weights."""
    rng = random.Random(61)
    nonsimple = 0
    for e in (1, 2, 6, 12):
        for rank in range(3):
            g = ScalarGroup(e, ("p", "q")[:rank], "zeta" if e > 1 else None)
            for _ in range(15):
                n = rng.randrange(1, 6)
                p = random_presentation(rng, g, n)
                lam = [[g.one() if i == j else p.quantum_weight(i, j) for j in range(n)]
                       for i in range(n)]
                ref = QuantumTorus(p.group, lam)
                t = QuantumTorus.from_presentation(p)
                assert t.n == ref.n and t.group == ref.group
                assert t.exponents == ref.exponents
                assert t.moduli == ref.moduli
                assert t.lam == ref.lam == lam
                assert t == ref and ref == t
                assert central_lattice(t) == central_lattice(ref)
                assert QuantumTorus.from_presentation(t.to_presentation(p.gens)) == t
                nonsimple += not is_simple(t)
    assert nonsimple > 20


def test_from_presentation_equality():
    """b a = zeta q a b is stored at (0, 1) as zeta^3 q^-1; a torus with the
    same exponents over another group is a different torus."""
    def plane(g, name):
        w = g.root().mul(g.free_gen(name))
        return QuantumTorus.from_presentation(
            Presentation.build(g, ("a", "b"), [(1, 0, Multiplicative(w))]))

    g = ScalarGroup(4, ("q",), "zeta")
    one, z, q = g.one(), g.root(), g.free_gen("q")
    t = plane(g, "q")
    assert t.exponents == [[[0, 3], [1, 0]], [[0, -1], [1, 0]]]
    assert t == QuantumTorus(g, [[one, z.inv().mul(q.inv())], [z.mul(q), one]])
    assert t != QuantumTorus(g, [[one, z.inv()], [z, one]])
    other = plane(ScalarGroup(4, ("p",), "zeta"), "p")
    assert other.exponents == t.exponents and other != t


@pytest.mark.parametrize("rel", [Additive(1), Eulerian(0)])
def test_from_presentation_rejects_non_quantum(rel):
    g = ScalarGroup(1, ("q",))
    p = Presentation.build(g, ("a", "b", "c"),
                           [(0, 2, Multiplicative(g.free_gen("q"))), (0, 1, rel)])
    with pytest.raises(TorusError, match="non-quantum relation"):
        QuantumTorus.from_presentation(p)


def test_simple_q_plane(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    assert central_lattice(t) == []
    assert is_simple(t)
    assert brute_force_central(t) == []


def test_commutative_torus_full_center(grp):
    t = QuantumTorus(grp, [[grp.one()] * 3 for _ in range(3)])
    assert central_lattice(t) == il.identity(3)
    assert not is_simple(t)


def test_minus_one_torus():
    g = ScalarGroup(2, (), "zeta")
    m = g.scalar(torsion=1)
    t = QuantumTorus(g, [[g.one(), m], [m, g.one()]])
    basis = central_lattice(t)
    assert not is_simple(t)
    assert lattice_member(basis, [2, 0])
    assert not lattice_member(basis, [1, 0])
    assert sorted(brute_force_central(t, 2), key=tuple)[0] is not None


def test_counterexample_block_torus():
    # free q block plus a -1 block: central lattice is 2 Z x 2 Z on the last
    # two coordinates
    g = ScalarGroup(2, ("q",), "zeta")
    q = g.free_gen("q")
    m = g.scalar(torsion=1)
    one = g.one()
    lam = [[one, q, one, one],
           [q.inv(), one, one, one],
           [one, one, one, m],
           [one, one, m, one]]
    t = QuantumTorus(g, lam)
    basis = central_lattice(t)
    assert basis == [[0, 0, 2, 0], [0, 0, 0, 2]]
    brute = brute_force_central(t, 2)
    for v in brute:
        assert lattice_member(basis, v)


def test_all_one_row_not_simple(grp):
    q = grp.free_gen("q")
    one = grp.one()
    lam = [[one, q, one], [q.inv(), one, one], [one, one, one]]
    t = QuantumTorus(grp, lam)
    assert not is_simple(t)
    assert lattice_member(central_lattice(t), [0, 0, 1])


def test_check_morphism_identity(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    out = check_morphism(t, t, il.identity(2))
    assert not isinstance(out, Violation)
    assert is_isomorphism(out)


def test_check_morphism_swap_violation(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    out = check_morphism(t, t, [[0, 1], [1, 0]])
    assert out == Violation(0, 1)


def test_check_morphism_square(grp):
    src = uni(grp, [[0, 2], [-2, 0]])
    dst = uni(grp, [[0, 1], [-1, 0]])
    out = check_morphism(src, dst, [[2, 0], [0, 1]])
    assert not isinstance(out, Violation)
    assert not is_isomorphism(out)  # det 2


def test_compose_and_iso(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    ident = check_morphism(t, t, il.identity(2))
    f = check_morphism(t, t, [[1, 1], [0, 1]])
    assert not isinstance(f, Violation)
    assert is_isomorphism(f)
    assert compose(ident, f).h == f.h
    g = compose(f, f)
    assert [list(r) for r in g.h] == il.matmul([[1, 1], [0, 1]], [[1, 1], [0, 1]])


def test_compose_closure_random(grp):
    rng = random.Random(5)
    t = uni(grp, [[0, 1], [-1, 0]])
    for _ in range(20):
        u1 = [[1, rng.randrange(-2, 3)], [0, 1]]
        u2 = [[1, 0], [rng.randrange(-2, 3), 1]]
        f = check_morphism(t, t, u1)
        g = check_morphism(t, t, u2)
        if isinstance(f, Violation) or isinstance(g, Violation):
            continue
        assert not isinstance(compose(f, g), Violation)


def test_uniparameter_exponents(grp):
    q = grp.free_gen("q")
    one = grp.one()
    t = QuantumTorus(grp, [[one, q], [q.inv(), one]])
    assert uniparameter_exponents(t, "q") == [[0, 1], [-1, 0]]
    t2 = QuantumTorus(grp, [[one, q.pow(2)], [q.pow(-2), one]])
    assert uniparameter_exponents(t2, "q") == [[0, 2], [-2, 0]]
    g2 = ScalarGroup(2, ("q",), "zeta")
    m = g2.scalar(torsion=1)
    t3 = QuantumTorus(g2, [[g2.one(), m], [m, g2.one()]])
    assert uniparameter_exponents(t3, "q") is None


def test_iso_decide_same(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    res = uniparameter_iso_decide(t, t, "q")
    assert isinstance(res, Iso)


def test_iso_decide_divisors_differ(grp):
    t1 = uni(grp, [[0, 1], [-1, 0]])
    t2 = uni(grp, [[0, 2], [-2, 0]])
    res = uniparameter_iso_decide(t1, t2, "q")
    assert isinstance(res, NotIso)
    assert res.canonical_1 == (1,) and res.canonical_2 == (2,)


def test_iso_decide_not_applicable():
    g = ScalarGroup(2, ("q",), "zeta")
    m = g.scalar(torsion=1)
    t = QuantumTorus(g, [[g.one(), m], [m, g.one()]])
    assert isinstance(uniparameter_iso_decide(t, t, "q"), NotApplicable)


def test_iso_decide_random_congruence(grp):
    rng = random.Random(9)
    for _ in range(25):
        n = rng.randrange(1, 5)
        s = random_antisymmetric(n, rng, bound=3)
        u = random_unimodular(n, rng, steps=6)
        s2 = il.matmul(il.matmul(il.transpose(u), s), u)
        t1 = uni(grp, s)
        t2 = uni(grp, s2)
        res = uniparameter_iso_decide(t1, t2, "q")
        assert isinstance(res, Iso)
        # symmetry and reflexivity
        assert isinstance(uniparameter_iso_decide(t2, t1, "q"), Iso)
        assert isinstance(uniparameter_iso_decide(t1, t1, "q"), Iso)


def test_iso_witness_equals_the_unimodular_inverse_route(grp):
    """On congruent pairs, the witness h = u2 * u1^-1 and the h^-1 = u1 * u2^-1
    that h * h^-1 = I checks, built from the tracked inverses, equal the
    products through matinv_unimodular, and h carries t1 onto t2."""
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(1, 8)
        s = random_antisymmetric(n, rng, bound=5)
        u = random_unimodular(n, rng, steps=10)
        s2 = il.matmul(il.matmul(il.transpose(u), s), u)
        res = uniparameter_iso_decide(uni(grp, s), uni(grp, s2), "q")
        f1, f2 = il.skew_normal_form(s), il.skew_normal_form(s2)
        h = il.matmul(f2.transform, il.matinv_unimodular(f1.transform))
        assert [list(r) for r in res.h] == h
        assert [list(r) for r in res.h_inv] == il.matinv_unimodular(h)
        assert il.matmul(il.matmul(il.transpose(h), s2), h) == s


def test_iso_refuses_an_inverse_that_is_not_the_inverse_of_h(grp, monkeypatch):
    """h * h_inv = I is the only check of h_inv.  A tracked inverse of the
    second skew form moved by a shear leaves h right but h_inv wrong, and
    on the 2 x 2 torus h_inv still satisfies the weight equations, since
    every g in SL_2(Z) has g^T S g = S; the product refuses it."""
    t = uni(grp, [[0, 1], [-1, 0]])
    real = il.skew_normal_form
    calls = []

    def second_inverse_sheared(a):
        f = real(a)
        calls.append(a)
        if len(calls) == 2:
            w = [list(r) for r in f.inverse]
            w[0] = [x + y for x, y in zip(w[0], w[1])]
            f = f._replace(inverse=tuple(map(tuple, w)))
        return f

    monkeypatch.setattr(il, "skew_normal_form", second_inverse_sheared)
    with pytest.raises(AssertionError, match="not the inverse"):
        uniparameter_iso_decide(t, t, "q")
    assert len(calls) == 2


def test_corpus_isos_carry_the_inverse_of_their_witness():
    """Iso.h_inv is the inverse of Iso.h, so the equivalence witness needs
    no matinv_unimodular.  Read on the corpus pairs of ``torus iso`` (the
    files' tori) and of ``equiv`` (the tori of the reduced algebras), each
    pair both ways and each of its files against itself.  Their witnesses
    are identities; random congruent pairs are in
    ``test_iso_witness_equals_the_unimodular_inverse_route``."""
    def pairs(*names):
        return {p for a, b in names for p in ((a, b), (b, a), (a, a), (b, b))}

    def tori(kind, a, b, torus):
        paths = [corpus(f"{name}.qwa") for name in (a, b)]
        return [torus(x) for x in _load(paths, [kind] * 2)]

    routes = {
        "torus": [tori("torus", a, b, lambda t: t) for a, b in
                  pairs(("torus_q2", "torus_d2"), ("quantum_plane", "torus_q2"))],
        "equiv": [tori("presentation", a, b, lambda p: reduce_to_canonical(p)[0].torus())
                  for a, b in pairs(("s22q", "s22q2"), ("mixed_weyl_F", "mixed_weyl_Fprime"),
                                    ("quantum_plane", "torus_d2"))],
    }
    for route, cases in routes.items():
        isos = [res for t1, t2 in cases
                if isinstance(res := uniparameter_iso_decide(t1, t2, "q"), Iso)]
        assert isos, route
        for res in isos:
            assert [list(r) for r in res.h_inv] == il.matinv_unimodular(res.h)


def test_check_morphism_matches_scalar_products():
    rng = random.Random(21)
    morphisms = violations = 0
    for _ in range(150):
        g = random_group(rng)
        n, np_ = rng.randrange(1, 5), rng.randrange(1, 5)
        dst = random_torus(rng, g, np_)
        h = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(np_)]
        pulled = QuantumTorus(g, [[pullback_weight(dst, h, i, j) for j in range(n)]
                                  for i in range(n)])
        for src in (pulled, random_torus(rng, g, n)):
            out = check_morphism(src, dst, h)
            expected = scalar_violation(src, dst, h)
            if expected is None:
                assert isinstance(out, TorusMorphism)
                assert out.h == tuple(tuple(r) for r in h)
                morphisms += 1
            else:
                assert out == expected
                violations += 1
    assert morphisms > 150 and violations > 50


def torus_of_exponents(g, exps):
    """The torus whose weight at (i, j) has torsion exps[0][i][j] (mod e) and
    free part exps[1:][.][i][j]."""
    n = len(exps[0])
    return QuantumTorus(g, [[g.scalar(exps[0][i][j], tuple(s[i][j] for s in exps[1:]))
                             for j in range(n)] for i in range(n)])


def full_product_violation(src, dst, h):
    """The first failing pair of S = h^T S' h, read off the full product of
    every coordinate (the one mod 1 and the zero ones too) in row-major
    order; else None.  Both sides are antisymmetric, so the first failing
    entry lies above the diagonal."""
    pulled = [full_congruence(h, s) for s in dst.exponents]
    for i in range(src.n):
        for j in range(src.n):
            for p, s, mod in zip(pulled, src.exponents, src.moduli):
                if (p[i][j] - s[i][j]) % mod if mod else p[i][j] != s[i][j]:
                    assert i < j
                    return Violation(i, j)
    return None


def test_check_morphism_matches_the_full_product():
    """check_morphism compares only i < j and pulls a zero S' (the torsion
    coordinate when e = 1 among them) back with no product.  On drawn tori
    over Z/e x Z^m, e in {1, 2, 6} and m in {1, 2}, with zero coordinates,
    non-square h and one entry of the exact pull-back moved (in any
    coordinate, the zero ones among them), it gives the verdict and first
    failing pair of the full product."""
    rng = random.Random(57)
    seen = {"morphism": 0, "violation": 0, "torsion": 0, "zero": 0}
    for _ in range(300):
        e, m = rng.choice((1, 2, 6)), rng.choice((1, 2))
        g = ScalarGroup(e, ("p", "q")[:m], "zeta" if e > 1 else None)
        n, np_ = rng.randrange(1, 6), rng.randrange(1, 6)
        dst_exps = [random_antisymmetric(np_, rng, bound=3) if rng.random() < 0.7
                    else il.zeros(np_, np_) for _ in range(1 + m)]
        dst = torus_of_exponents(g, dst_exps)
        h = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(np_)]
        src_exps = [full_congruence(h, s) for s in dst.exponents]
        if n > 1 and rng.random() < 0.6:
            k = rng.randrange(1 + m) if e > 1 else rng.randrange(1, 1 + m)
            i, j = sorted(rng.sample(range(n), 2))
            delta = rng.randrange(1, e) if k == 0 else rng.choice((-1, 1))
            src_exps[k][i][j] += delta
            src_exps[k][j][i] -= delta
            seen["torsion"] += k == 0
            seen["zero"] += not any(map(any, dst.exponents[k]))
        src = torus_of_exponents(g, src_exps)
        out = check_morphism(src, dst, h)
        expected = full_product_violation(src, dst, h)
        if expected is None:
            assert out == TorusMorphism(src, dst, tuple(tuple(r) for r in h))
            seen["morphism"] += 1
        else:
            assert out == expected, (src_exps, dst_exps, h)
            seen["violation"] += 1
    assert min(seen.values()) > 20, seen


def test_check_morphism_into_the_torus_on_no_generators(grp):
    """The empty h sends every y_i to a scalar, so it is a morphism exactly
    when every weight of the source is 1."""
    point = uni(grp, [])
    assert isinstance(check_morphism(uni(grp, il.zeros(2, 2)), point, []), TorusMorphism)
    assert check_morphism(uni(grp, [[0, 1], [-1, 0]]), point, []) == Violation(0, 1)


def test_check_morphism_size_and_group_mismatch(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    with pytest.raises(TorusError):
        check_morphism(t, t, [[1, 0, 0], [0, 1, 0]])
    g2 = ScalarGroup(2, ("q",), "zeta")
    t2 = QuantumTorus.uniparameter(g2, "q", [[0, 1], [-1, 0]])
    with pytest.raises(GroupMismatch):
        check_morphism(t, t2, il.identity(2))


def test_central_lattice_matches_brute_force_with_torsion():
    rng = random.Random(33)
    nonsimple = 0
    for _ in range(40):
        t = random_torus(rng, random_group(rng), rng.randrange(1, 4))
        basis = central_lattice(t)
        for v in basis:
            assert is_central(t, v)
        for v in brute_force_central(t, 2):
            assert lattice_member(basis, v)
        nonsimple += bool(basis)
    assert nonsimple > 10


def test_uniparameter_exponents_with_torsion():
    rng = random.Random(44)
    for _ in range(60):
        g = random_group(rng)
        t = random_torus(rng, g, rng.randrange(1, 4))
        for name in g.free_symbols:
            s = uniparameter_exponents(t, name)
            q, k = g.free_gen(name), g.free_symbols.index(name)
            exact = all(w == q.pow(w.free[k]) for row in t.lam for w in row)
            assert (s is not None) == exact
            if s is not None:
                assert QuantumTorus.uniparameter(g, name, s) == t


def test_refusals_and_foreign_comparisons():
    g, gp = ScalarGroup(1, ("q",)), ScalarGroup(1, ("p",))
    one = g.one()
    with pytest.raises(TorusError, match="^weight matrix must be square$"):
        QuantumTorus(g, [[one, one]])
    with pytest.raises(TorusError, match="^weight outside the declared group$"):
        QuantumTorus(g, [[gp.one()]])
    t1 = QuantumTorus(g, [[one]])
    t2 = QuantumTorus.uniparameter(g, "q", [[0, 1], [-1, 0]])
    assert t1 != "t1"
    f, h = (check_morphism(t, t, il.identity(t.n)) for t in (t2, t1))
    with pytest.raises(TorusError, match="^morphisms are not composable$"):
        compose(f, h)
