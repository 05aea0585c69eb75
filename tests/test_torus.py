import itertools
import random

import pytest

from qwalg import intlattice as il
from qwalg.cli import _load
from qwalg.mixed import reduce_to_canonical
from qwalg.qwa import parse_document
from qwalg.scalars import GroupMismatch, ScalarGroup
from qwalg.torus import (Iso, NotApplicable, NotIso, QuantumTorus, TorusError,
                         TorusMorphism, Violation, central_lattice, check_morphism,
                         is_isomorphism, is_simple, uniparameter_exponents,
                         uniparameter_iso_decide)
from support import (corpus, full_congruence, lattice_member, random_antisymmetric,
                     random_unimodular, torus, uniparameter)


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
    return torus(g, lam)


@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def uni(grp, exps):
    return uniparameter(grp, "q", exps)


def test_validation(grp):
    q = grp.free_gen("q")
    with pytest.raises(TorusError):
        torus(grp, [[grp.one(), q], [q, grp.one()]])  # not antisymmetric
    with pytest.raises(TorusError):
        torus(grp, [[q]])  # diagonal not 1


def pairwise_refusal(lam):
    """The definition, row by row: a diagonal weight other than 1, then a
    pair (i, j), for any j, with lambda_{i,j} lambda_{j,i} != 1; else None."""
    for i, row in enumerate(lam):
        if not row[i].is_one():
            return "diagonal weights must be 1"
        if any(not w.mul(lam[j][i]).is_one() for j, w in enumerate(row)):
            return "weight matrix is not multiplicatively antisymmetric"
    return None


def test_constructor_check_matches_the_pairwise_definition():
    """Drawn antisymmetric matrices with up to two entries redrawn.  Torsion
    e/2 is drawn often: off the diagonal zeta^(e/2) zeta^(e/2) = 1 passes,
    on it zeta^(e/2) is refused although 2 (e/2) = 0 mod e."""
    rng = random.Random(34)
    seen = {"accepted": 0, "half off the diagonal": 0, "half on the diagonal": 0}
    for e in (1, 2, 4, 5, 6):
        for rank in range(3):
            g = ScalarGroup(e, ("p", "q")[:rank], "zeta" if e > 1 else None)
            half = g.scalar(e // 2)

            def weight():
                t = rng.choice((0, e // 2, e // 2, rng.randrange(e)))
                return g.scalar(t, tuple(rng.choice((-1, 0, 0, 1)) for _ in range(rank)))

            for _ in range(40):
                n = rng.randrange(1, 5)
                lam = [[g.one()] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        lam[i][j] = weight()
                        lam[j][i] = lam[i][j].inv()
                for _ in range(rng.randrange(3)):
                    lam[rng.randrange(n)][rng.randrange(n)] = weight()
                expected = pairwise_refusal(lam)
                if expected is None:
                    assert torus(g, lam).lam == lam
                    seen["accepted"] += 1
                    seen["half off the diagonal"] += e % 2 == 0 and any(
                        w == half for row in lam for w in row)
                else:
                    with pytest.raises(TorusError, match=f"^{expected}$"):
                        torus(g, lam)
                    seen["half on the diagonal"] += e % 2 == 0 and any(
                        lam[i][i] == half for i in range(n))
    assert all(count >= 20 for count in seen.values()), seen


def random_relations(rng, g, n):
    """Quantum relations (a, b, w), g_a g_b = w g_b g_a, of a presentation
    in random orientations, some of weight 1, with torsion and negative free
    exponents."""
    items = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                w = g.scalar(rng.randrange(g.torsion_order),
                             tuple(rng.randrange(-3, 4) for _ in range(g.rank)))
                items.append((i, j, w) if rng.random() < 0.5 else (j, i, w))
    rng.shuffle(items)
    return items


def test_from_presentation_matches_validated_path():
    """Exponents read straight off the relations of a presentation agree
    with the checked constructor on the scalar matrix of its weights, and
    the torus's presentation twists by the torus's degrees."""
    rng = random.Random(61)
    nonsimple = 0
    for e in (1, 2, 6, 12):
        for rank in range(3):
            g = ScalarGroup(e, ("p", "q")[:rank], "zeta" if e > 1 else None)
            for _ in range(15):
                n = rng.randrange(1, 6)
                items = random_relations(rng, g, n)
                lam = [[g.one()] * n for _ in range(n)]
                for a, b, w in items:
                    lam[a][b], lam[b][a] = w, w.inv()
                ref = torus(g, lam)
                t = QuantumTorus.from_relations(g, n, [(a, b, w.degree()) for a, b, w in items])
                assert t.n == ref.n and t.group == ref.group
                assert t.exponents == ref.exponents
                assert t.moduli == ref.moduli
                assert t.lam == ref.lam == lam
                assert t == ref and ref == t
                assert central_lattice(t) == central_lattice(ref)
                p = t.to_presentation([f"y{k}" for k in range(n)])
                assert [[p.twist(i, j) for j in range(n)] for i in range(n)] == t.degrees()
                nonsimple += not is_simple(t)
    assert nonsimple > 20


def test_from_presentation_equality():
    """b a = zeta q a b is stored at (0, 1) as zeta^3 q^-1; a torus with the
    same exponents over another group is a different torus."""
    def plane(g, name):
        w = g.root().mul(g.free_gen(name))
        return QuantumTorus.from_relations(g, 2, [(1, 0, w.degree())])

    g = ScalarGroup(4, ("q",), "zeta")
    one, z, q = g.one(), g.root(), g.free_gen("q")
    t = plane(g, "q")
    assert t.exponents == [[[0, 3], [1, 0]], [[0, -1], [1, 0]]]
    assert t == torus(g, [[one, z.inv().mul(q.inv())], [z.mul(q), one]])
    assert t != torus(g, [[one, z.inv()], [z, one]])
    other = plane(ScalarGroup(4, ("p",), "zeta"), "p")
    assert other.exponents == t.exponents and other != t


@pytest.mark.parametrize("rel", ["a b = b a + 1", "[a, b] = b"], ids=["rel0", "rel1"])
def test_from_presentation_rejects_non_quantum(rel):
    """A Weyl or an Eulerian relation in a file read as a torus."""
    doc = parse_document("scalars { free q }\ngenerators a, b, c\n"
                         f"relations {{\n  a c = q * c a\n  {rel}\n}}\n", torus=True)
    with pytest.raises(TorusError, match="non-quantum relation"):
        QuantumTorus.from_relations(doc.group, *doc.presentation)


def test_simple_q_plane(grp):
    t = uni(grp, [[0, 1], [-1, 0]])
    assert central_lattice(t) == []
    assert is_simple(t)
    assert brute_force_central(t) == []


def test_commutative_torus_full_center(grp):
    t = torus(grp, [[grp.one()] * 3 for _ in range(3)])
    assert central_lattice(t) == il.identity(3)
    assert not is_simple(t)


def test_minus_one_torus():
    g = ScalarGroup(2, (), "zeta")
    m = g.scalar(torsion=1)
    t = torus(g, [[g.one(), m], [m, g.one()]])
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
    t = torus(g, lam)
    basis = central_lattice(t)
    assert basis == [[0, 0, 2, 0], [0, 0, 0, 2]]
    brute = brute_force_central(t, 2)
    for v in brute:
        assert lattice_member(basis, v)


def test_all_one_row_not_simple(grp):
    q = grp.free_gen("q")
    one = grp.one()
    lam = [[one, q, one], [q.inv(), one, one], [one, one, one]]
    t = torus(grp, lam)
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


def compose(f: TorusMorphism, g: TorusMorphism) -> TorusMorphism:
    """f after g (matrices multiply)."""
    if g.dst is not f.src and g.dst != f.src:
        raise TorusError("morphisms are not composable")
    out = check_morphism(g.src, f.dst, il.matmul(f.h, g.h))
    if isinstance(out, Violation):  # nothing checks a TorusMorphism built by hand
        raise TorusError("composite violates the weight equations: a factor is not a morphism")
    return out


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
    t = torus(grp, [[one, q], [q.inv(), one]])
    assert uniparameter_exponents(t, "q") == [[0, 1], [-1, 0]]
    t2 = torus(grp, [[one, q.pow(2)], [q.pow(-2), one]])
    assert uniparameter_exponents(t2, "q") == [[0, 2], [-2, 0]]
    g2 = ScalarGroup(2, ("q",), "zeta")
    m = g2.scalar(torsion=1)
    t3 = torus(g2, [[g2.one(), m], [m, g2.one()]])
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
    t = torus(g, [[g.one(), m], [m, g.one()]])
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
        pulled = torus(g, [[pullback_weight(dst, h, i, j) for j in range(n)]
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
    return torus(g, [[g.scalar(exps[0][i][j], tuple(s[i][j] for s in exps[1:]))
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
    t2 = uniparameter(g2, "q", [[0, 1], [-1, 0]])
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
                assert uniparameter(g, name, s) == t


def test_refusals_and_foreign_comparisons():
    g, gp = ScalarGroup(1, ("q",)), ScalarGroup(1, ("p",))
    one = g.one()
    with pytest.raises(TorusError, match="^weight matrix must be square$"):
        torus(g, [[one, one]])
    with pytest.raises(TorusError, match="^weight outside the declared group$"):
        QuantumTorus(g, [[(0, 0, 0)]])  # a degree of Z^2
    with pytest.raises(TorusError, match="^weight outside the declared group$"):
        QuantumTorus(g, [[(1, 0)]])  # torsion 1 where e = 1
    t1 = torus(g, [[one]])
    t2 = uniparameter(g, "q", [[0, 1], [-1, 0]])
    assert t1 != "t1"
    f, h = (check_morphism(t, t, il.identity(t.n)) for t in (t2, t1))
    with pytest.raises(TorusError, match="^morphisms are not composable$"):
        compose(f, h)
    # Nothing checks a TorusMorphism built by hand: det 2 pulls q back to q^2.
    f = TorusMorphism(t2, t2, ((2, 0), (0, 1)))
    with pytest.raises(TorusError, match="^composite violates the weight equations: "
                                         "a factor is not a morphism$"):
        compose(f, f)
