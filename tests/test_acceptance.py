"""Acceptance suite: one test per criterion, each printing a pass line.

Everything here is exact and oracle-based: admissibility is cross-checked
against overlap resolution, lattice verdicts against bounded enumeration,
normal forms against independent transforms, and every equivalence or
embedding witness is re-verified relation by relation.
"""
import itertools
import random

from qwalg import intlattice as il
from qwalg.embeddings import (GeneratorMap, Verified, embed_mixed, embed_torus,
                              verify_homomorphism, weyl_lower_bound_witness)
from qwalg.mixed import (CanonicalMixedAlgebra, Equivalent, MixedWeylField,
                         NotEquivalent, cross_equivalence_necessary,
                         equivalence_decide, invariants, mixed_weyl_invariants,
                         reduce_to_canonical)
from qwalg.presentation import (Presentation, apply_certificate, certified_system,
                                check_admissible, system_from_presentation)
from qwalg.qwa import format_presentation, parse_presentation
from qwalg.qweyl import QuantumWeylAlgebra, localize_to_mixed, qweyl_invariants
from qwalg.rewrite import Confluent
from qwalg.scalars import ScalarGroup
from qwalg.torus import QuantumTorus, central_lattice, is_simple

from support import (CORPUS, cli_output, corpus, random_antisymmetric, random_unimodular,
                     scramble)


def _ok(num, text):
    print(f"[criterion {num}] PASS - {text}")


# -- 1. admissibility <=> confluence -----------------------------------------


def relation_choices(group):
    """Weyl weights and twist degrees, as the k of ``Presentation.from_items``."""
    q = group.free_gen("q")
    m = group.scalar(torsion=group.torsion_order // 2)
    return [-1, 0, 1, 2] + [s.degree() for s in (q, q.inv(), q.pow(2), m)]


def agree(p):
    adm = check_admissible(p).admissible
    conf = isinstance(system_from_presentation(p).check_confluence(), Confluent)
    return adm == conf


def test_criterion_1_admissibility_equals_confluence():
    group = ScalarGroup(2, ("q",), "zeta")
    choices = relation_choices(group)
    pairs3 = [(0, 1), (0, 2), (1, 2)]
    checked = 0
    for combo in itertools.product(choices, repeat=3):
        p = Presentation.from_items(group, ("g1", "g2", "g3"),
                                    [(i, j, rel) for (i, j), rel in zip(pairs3, combo)])
        assert agree(p), f"disagreement on {combo}"
        checked += 1
    assert checked == 512
    rng = random.Random(101)
    randoms = 0
    while randoms < 500:
        n = rng.choice([4, 5])
        items = [(i, j, rng.choice(choices))
                 for i in range(n) for j in range(i + 1, n)]
        p = Presentation.from_items(group, tuple(f"g{k}" for k in range(n)), items)
        assert agree(p), f"disagreement on random presentation {items}"
        randoms += 1
    _ok(1, f"triangle test agrees with overlap resolution on {checked} "
           f"exhaustive 3-generator and {randoms} random 4-5-generator "
           f"presentations")


# -- 2. graph reduction correctness -------------------------------------------


def test_criterion_2_reduction_certificates():
    group = ScalarGroup(2, ("q",), "zeta")
    q = group.free_gen("q")
    weights = [group.one(), q, q.inv(), q.pow(2), group.scalar(torsion=1)]
    rng = random.Random(202)
    done = 0
    while done < 100:
        n = rng.randrange(1, 5)
        r = rng.randrange(0, n + 1)
        if n + r > 6:
            continue
        lam = [[group.one() for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.choice(weights)
                lam[i][j] = w
                lam[j][i] = w.inv()
        algebra = CanonicalMixedAlgebra(group, n, r, lam)
        p = scramble(algebra.to_presentation(), rng, steps=8)
        assert check_admissible(p).admissible
        out, cert = reduce_to_canonical(p)
        assert out.n + out.r == p.n
        assert 2 * out.r == il.rank(p.weyl)
        assert (out.n, out.r) == (n, r)
        replayed, canonical = apply_certificate(p, cert.ops), out.to_presentation()
        assert (replayed.weyl, replayed.degrees) == (canonical.weyl, canonical.degrees)
        assert check_admissible(out.to_presentation()).admissible
        done += 1
    _ok(2, f"{done} random admissible graphs reduced with exact certificate "
           f"replay, n + r = N and 2r = rank of the Weyl matrix throughout")


# -- 3. skew normal form -------------------------------------------------------


def test_criterion_3_skew_normal_form():
    rng = random.Random(303)
    for trial in range(500):
        n = rng.randrange(1, 7)
        a = random_antisymmetric(n, rng, bound=5)
        u = random_unimodular(n, rng, steps=rng.randrange(1, 9))
        b = il.matmul(il.matmul(il.transpose(u), a), u)
        fa = il.skew_normal_form(a)
        fb = il.skew_normal_form(b)
        assert fa.divisors == fb.divisors
        for i in range(len(fa.divisors) - 1):
            assert fa.divisors[i + 1] % fa.divisors[i] == 0
        ua = [list(r) for r in fa.transform]
        assert il.matmul(il.matmul(il.transpose(ua), a), ua) == fa.canonical_matrix()
    _ok(3, "500 random congruence pairs share canonical divisors; every "
           "transform re-multiplies exactly and divisor chains divide")


# -- 4. torus simplicity vs bounded enumeration --------------------------------


def box_witness_exists(s, box=5):
    """Meet-in-the-middle enumeration of nonzero alpha with s*alpha = 0."""
    n = len(s)
    half = n // 2
    rng_vals = range(-box, box + 1)
    right: dict = {}
    for beta in itertools.product(rng_vals, repeat=n - half):
        key = tuple(sum(s[j][half + i] * beta[i] for i in range(n - half))
                    for j in range(n))
        nz = any(beta)
        prev = right.get(key)
        if prev is None or (not prev and nz):
            right[key] = nz
    for gamma in itertools.product(rng_vals, repeat=half):
        key = tuple(-sum(s[j][i] * gamma[i] for i in range(half))
                    for j in range(n))
        hit = right.get(key)
        if hit is None:
            continue
        if any(gamma) or hit:
            return True
    return False


def test_criterion_4_torus_simplicity():
    group = ScalarGroup(1, ("q",))
    tori = 0
    for n in range(1, 5):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for exps in itertools.product(range(-2, 3), repeat=len(pairs)):
            s = [[0] * n for _ in range(n)]
            for (i, j), e in zip(pairs, exps):
                s[i][j] = e
                s[j][i] = -e
            t = QuantumTorus.uniparameter(group, "q", s)
            simple = is_simple(t)
            witness = box_witness_exists(s)
            if simple:
                assert not witness, f"box witness for a simple torus {s}"
            else:
                basis = central_lattice(t)
                fits = all(abs(x) <= 5 for x in basis[0])
                assert witness or not fits, f"missed witness for {s}"
            tori += 1
    # the root-of-unity block example
    g2 = ScalarGroup(2, ("q",), "zeta")
    q = g2.free_gen("q")
    m = g2.scalar(torsion=1)
    one = g2.one()
    lam = [[one, q, one, one], [q.inv(), one, one, one],
           [one, one, one, m], [one, one, m, one]]
    block = QuantumTorus(g2, lam)
    assert central_lattice(block) == [[0, 0, 2, 0], [0, 0, 0, 2]]
    assert is_simple(QuantumTorus(group, [[group.one(), group.free_gen("q")],
                                          [group.free_gen("q").inv(), group.one()]]))
    gm = ScalarGroup(2, (), "zeta")
    assert not is_simple(QuantumTorus(gm, [[gm.one(), gm.scalar(torsion=1)],
                                           [gm.scalar(torsion=1), gm.one()]]))
    _ok(4, f"kernel verdicts match bounded enumeration on {tori} uniparameter "
           f"tori (n <= 4, exponents in -2..2); block example has central "
           f"rank 2")


# -- 5. localization verification grid -----------------------------------------


def qweyl_grid(n):
    group = ScalarGroup(1, ("q",))
    q = group.free_gen("q")
    one = group.one()
    npairs = n * (n - 1) // 2
    for pattern in itertools.product((one, q), repeat=n):
        for weights in itertools.product((one, q, q.inv()), repeat=npairs):
            lam = [[one for _ in range(n)] for _ in range(n)]
            for (i, j), w in zip(((i, j) for i in range(n)
                                  for j in range(i + 1, n)), weights):
                lam[i][j] = w
                lam[j][i] = w.inv()
            yield QuantumWeylAlgebra(group, n, pattern, lam)


def test_criterion_5_localization_grid():
    runs = 0
    for n in (1, 2, 3):
        for a in qweyl_grid(n):
            res = localize_to_mixed(a)   # raises on any verification failure
            r = len(a.weyl_indices)
            assert (res.canonical.n, res.canonical.r) == (2 * n - r, r)
            for i in a.quantum_indices:
                assert res.normal_scalars[i]  # confirmed scalar-normal
            runs += 1
    _ok(5, f"{runs} localizations over the n <= 3 parameter grid: every "
           f"normality check and every canonical relation verified to zero")


# -- 6. embedding suite ----------------------------------------------------------


def test_criterion_6_embeddings():
    group = ScalarGroup(1, ("q",))
    q = group.free_gen("q")
    one = group.one()
    rng = random.Random(606)
    count = 0
    for n in range(1, 5):
        for _ in range(3):
            lam = [[one for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    w = q.pow(rng.randrange(-1, 2))
                    lam[i][j] = w
                    lam[j][i] = w.inv()
            gmap, field = embed_torus(QuantumTorus(group, lam))
            if n == 1:
                # the line: one central variable, not a constant
                assert (field.n, field.t) == (0, 1)
            else:
                assert 2 * field.n + field.t == n * (n - 1)
            count += 1
    # the two-variable unbraiding map
    src = parse_presentation(
        "scalars { free q }\ngenerators y1, y2, w1\nrelations {\n"
        "  y1 y2 = q * y2 y1\n  [w1, y1] = y1\n}\n")
    tgt = certified_system(parse_presentation(
        "scalars { free q }\ngenerators w, y, u, v\nrelations {\n"
        "  [w, y] = y\n  u v = q * v u\n}\n"))
    ll2 = GeneratorMap(src, tgt, {"y1": tgt.word("y", "u"),
                                  "y2": tgt.word("v"), "w1": tgt.word("w")})
    assert isinstance(verify_homomorphism(ll2), Verified)

    def canonical(n, r):
        lam = [[one for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = q
                lam[j][i] = q.inv()
        return CanonicalMixedAlgebra(group, n, r, lam)

    for n in (1, 2, 3):
        for r in range(n + 1):
            gmap, field = embed_mixed(canonical(n, r))
            assert field.m == r
            if (n, r) != (1, 0):
                assert n * (n - 1) <= 2 * field.n + field.t <= n * (n - 1) + r
            count += 1
    s22 = canonical(2, 2)
    gmap, field = embed_mixed(s22)
    assert (field.m, field.n, field.t) == (2, 1, 0)
    witness = weyl_lower_bound_witness(s22)
    res = verify_homomorphism(witness)
    assert isinstance(res, Verified) and res.relations_checked == 6
    _ok(6, f"{count} constructed embeddings verified; unbraiding map, the "
           f"two-pair example into (m, s, t) = (2, 1, 0), and the classical "
           f"Weyl witness all check out")


# -- 7. reported values -----------------------------------------------------------


def test_criterion_7_reported_values():
    group = ScalarGroup(1, ("q", "p"))
    q = group.free_gen("q")
    p = group.free_gen("p")
    one = group.one()
    s22 = CanonicalMixedAlgebra(group, 2, 2, [[one, q], [q.inv(), one]])
    assert invariants(s22).w_supdeg == 4
    # w-supdeg of the quantum Weyl algebras across the small grid
    for n in (1, 2, 3):
        for pattern in itertools.product((one, q), repeat=n):
            lam = [[one for _ in range(n)] for _ in range(n)]
            a = QuantumWeylAlgebra(group, n, pattern, lam)
            inv = qweyl_invariants(a)
            assert inv.gk_dim == 2 * n
            assert inv.w_supdeg == 2 * sum(1 for c in pattern if c.is_one())
    # gk dimension across (n, r)
    for n in range(1, 5):
        for r in range(n + 1):
            s = CanonicalMixedAlgebra(group, n, r,
                                      [[one for _ in range(n)] for _ in range(n)])
            assert invariants(s).gk_dim == n + r
    # trivial center for semiclassical algebras over simple tori
    assert invariants(s22).center_rank == 0
    lam3 = [[one, q, p], [q.inv(), one, one], [p.inv(), one, one]]
    s33 = CanonicalMixedAlgebra(group, 3, 3, lam3)
    assert invariants(s33).torus_simple
    assert invariants(s33).center_rank == 0
    # mixed Weyl field invariants over the (m, n, t) <= (2, 2, 2) grid
    for m in range(3):
        for n in range(3):
            for t in range(3):
                d = MixedWeylField(group, m, n, t, tuple(q for _ in range(n)))
                inv = mixed_weyl_invariants(d)
                assert inv.gk_trdeg == 2 * m + 2 * n + t
                assert inv.w_infdeg == inv.w_supdeg == 2 * m
                assert inv.center_rank == t
    g2 = ScalarGroup(2, (), "zeta")
    droot = MixedWeylField(g2, 1, 1, 1, (g2.scalar(torsion=1),))
    assert mixed_weyl_invariants(droot).center_rank == 2  # torsion plane + central
    # the six-dimensional pair separated only by the Weyl degree
    f = MixedWeylField(group, 1, 2, 0, (q, q))
    fp = MixedWeylField(group, 2, 1, 0, (q,))
    i1, i2 = mixed_weyl_invariants(f), mixed_weyl_invariants(fp)
    assert i1.gk_trdeg == i2.gk_trdeg == 6
    assert i1.center_rank == i2.center_rank == 0
    assert (i1.w_infdeg, i2.w_infdeg) == (2, 4)
    _ok(7, "all reported values reproduced: Weyl degrees, gk dimensions, "
           "center ranks, and the degree-6 pair split by w-infdeg 2 vs 4")


# -- 8. equivalence decisions -------------------------------------------------------


def test_criterion_8_equivalence():
    group = ScalarGroup(1, ("q",))
    q = group.free_gen("q")
    rng = random.Random(808)

    def from_skew(s):
        n = len(s)
        return CanonicalMixedAlgebra(
            group, n, n, [[q.pow(s[i][j]) for j in range(n)] for i in range(n)])

    pairs = 0
    flips = 0
    while pairs < 50:
        n = rng.choice([2, 2, 3])
        ds = []
        d = rng.choice([1, 2])
        for _ in range(n // 2):
            ds.append(d)
            d *= rng.choice([1, 2])
        c = il.zeros(n, n)
        for k, dk in enumerate(ds):
            c[2 * k][2 * k + 1] = dk
            c[2 * k + 1][2 * k] = -dk
        u = random_unimodular(n, rng, steps=rng.randrange(2, 7))
        s = il.matmul(il.matmul(il.transpose(u), c), u)
        a, b = from_skew(c), from_skew(s)
        verdict = equivalence_decide(a, b)
        assert isinstance(verdict, Equivalent), f"expected equivalence for {c}"
        # independent re-verification of both witness maps
        for gm in (verdict.witness_forward, verdict.witness_backward):
            assert isinstance(verify_homomorphism(gm), Verified)
        pairs += 1
        # mutate one divisor: doubling the last entry changes the chain
        c2 = [row[:] for row in c]
        c2[2 * (len(ds) - 1)][2 * (len(ds) - 1) + 1] *= 2
        c2[2 * (len(ds) - 1) + 1][2 * (len(ds) - 1)] *= 2
        assert il.skew_normal_form(c2).divisors != il.skew_normal_form(s).divisors
        mut = equivalence_decide(from_skew(c2), b)
        assert isinstance(mut, NotEquivalent)
        flips += 1
    grid = [(m, n, t) for m in range(3) for n in range(3) for t in range(3)]
    crossed = 0
    s22 = CanonicalMixedAlgebra(group, 2, 2,
                                [[group.one(), q], [q.inv(), group.one()]])
    for (m, n, t) in grid:
        d = MixedWeylField(group, m, n, t, tuple(q for _ in range(n)))
        verdict = cross_equivalence_necessary(s22, d)
        assert isinstance(verdict, NotEquivalent)
        crossed += 1
    _ok(8, f"{pairs} congruent semiclassical pairs equivalent with re-verified "
           f"witnesses; {flips} divisor mutations flipped the verdict; the "
           f"two-pair algebra separated from all {crossed} grid Weyl fields")


# -- 9. round trips and determinism ---------------------------------------------------


def test_criterion_9_roundtrip_determinism():
    files = sorted(CORPUS.glob("*.qwa"))
    assert files
    stable = 0
    for path in files:
        text = path.read_text()
        if "qweyl" in text:
            continue
        p1 = parse_presentation(text)
        printed = format_presentation(p1)
        assert parse_presentation(printed) == p1
        assert format_presentation(parse_presentation(printed)) == printed
        stable += 1
    for args in (["check", corpus("s22q.qwa"), "--json"],
                 ["reduce", corpus("weyl_triangle.qwa"), "--json"],
                 ["invariants", corpus("s21q.qwa"), "--json"],
                 ["equiv", corpus("s22q.qwa"), corpus("s22q2.qwa"),
                  "--json"]):
        assert cli_output(args) == cli_output(args)
    _ok(9, f"{stable} corpus files round-trip byte-stably and repeated "
           f"command runs are identical")
