import random

import pytest

from qwalg import presentation
from qwalg.cyclo import Coeff
from qwalg.embeddings import (FailingRelation, GeneratorMap, Verified,
                              embed_mixed, embed_torus, verify_homomorphism,
                              weyl_lower_bound_witness)
from qwalg.mixed import CanonicalMixedAlgebra
from qwalg.presentation import certified_system
from qwalg.qwa import (ParseError, format_generator_map, parse_generator_map,
                       parse_presentation)
from qwalg.qweyl import localize_to_mixed
from qwalg.scalars import ScalarGroup

from support import (LL2_TARGET, T21_SOURCE, canonical, qweyl_grid, raw_image_verify,
                     run_corpus, torus)

@pytest.fixture
def grp():
    return ScalarGroup(1, ("q",))


def test_identity_map_verifies(grp):
    p = parse_presentation(T21_SOURCE)
    sys = certified_system(p)
    gmap = GeneratorMap(p, sys, {g: sys.word(g) for g in p.gens})
    assert isinstance(verify_homomorphism(gmap), Verified)


def test_two_variable_unbraiding_map():
    # y1 -> y u, y2 -> v, w1 -> w embeds the derivation presentation into the
    # tensor of a derivation pair with a quantum plane
    src = parse_presentation(T21_SOURCE)
    tgt = certified_system(parse_presentation(LL2_TARGET))
    gmap = GeneratorMap(src, tgt, {
        "y1": tgt.word("y", "u"),
        "y2": tgt.word("v"),
        "w1": tgt.word("w"),
    })
    res = verify_homomorphism(gmap)
    assert isinstance(res, Verified) and res.relations_checked == 3


def test_corrupted_map_fails_on_quantum_pair():
    src = parse_presentation(T21_SOURCE)
    tgt = certified_system(parse_presentation(LL2_TARGET))
    gmap = GeneratorMap(src, tgt, {
        "y1": tgt.word("y", "u"),
        "y2": tgt.word("u"),
        "w1": tgt.word("w"),
    })
    res = verify_homomorphism(gmap)
    assert isinstance(res, FailingRelation)
    assert res.pair == ("y1", "y2")
    assert not res.defect.is_zero()
    with pytest.raises(presentation.VerificationError) as err:
        presentation.verified(gmap, "map")
    assert str(err.value) == ("map failed verification: FailingRelation(pair=('y1', 'y2'), "
                              "defect=Element({(1, 2, 2): Coeff({(-1, 0): -1, (0, 0): 1}, den=[])}))")


MAP_ERRORS = [
    # (map text, line of the error, words of the message)
    ("map {\n  y1 -> y u\n  y2 -> v\n  w1 -> w z\n}\n", 4, "unknown target factor 'z'"),
    ("map {\n  y1 -> y u\n  y2 -> v\n  y1 -> u\n  w1 -> w\n}\n", 4,
     "second image for 'y1'"),
    ("map { y1 -> y u ; y2 -> v }\n", 1, "missing images for ['w1']"),
    ("map {\n  y1 -> y u\n  y2 = v\n}\n", 3, "bad map entry"),
    ("# a comment\nmap {\n  y1 -> y u\n  v2 -> v\n}\n", 4, "unknown source generator"),
    ("map {\n  y1 -> y u\n  y2 -> r * v\n}\n", 3, "undeclared scalar symbol 'r'"),
]


@pytest.mark.parametrize("text,line,words", MAP_ERRORS,
                         ids=[words for *_, words in MAP_ERRORS])
def test_map_errors_name_their_line(text, line, words):
    src = parse_presentation(T21_SOURCE)
    tgt = certified_system(parse_presentation(LL2_TARGET))
    with pytest.raises(ParseError) as err:
        parse_generator_map(text, src, tgt)
    assert err.value.line == line and words in err.value.message


def test_embed_torus_images_n3(grp):
    q = grp.free_gen("q")
    one = grp.one()
    lam = [[one, q, q], [q.inv(), one, q], [q.inv(), q.inv(), one]]
    t = torus(grp, lam)
    gmap, field = embed_torus(t)
    sys = gmap.target
    assert gmap.images["y1"] == sys.word("u1_2", "u1_3")
    assert gmap.images["y2"] == sys.word("v1_2", "u2_3")
    assert gmap.images["y3"] == sys.word("v1_3", "v2_3")
    assert (field.m, field.n, field.t) == (0, 3, 0)


def test_embed_torus_commutative(grp):
    one = grp.one()
    t = torus(grp, [[one, one], [one, one]])
    gmap, field = embed_torus(t)
    assert (field.m, field.n, field.t) == (0, 0, 2)


def test_embed_torus_plane(grp):
    q = grp.free_gen("q")
    one = grp.one()
    t = torus(grp, [[one, q], [q.inv(), one]])
    gmap, field = embed_torus(t)
    assert (field.m, field.n, field.t) == (0, 1, 0)
    assert field.qs == (q.degree(),)


def test_embed_torus_sizes(grp):
    rng = random.Random(3)
    q = grp.free_gen("q")
    one = grp.one()
    for n in range(1, 5):
        lam = [[one for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = q.pow(rng.randrange(-1, 2))
                lam[i][j] = w
                lam[j][i] = w.inv()
        _, field = embed_torus(torus(grp, lam))
        if n == 1:
            # the line: one central variable, not a constant
            assert (field.n, field.t) == (0, 1)
        else:
            assert 2 * field.n + field.t == n * (n - 1)


def s(grp, n, r, weight_exp=1):
    q = grp.free_gen("q", weight_exp)
    one = grp.one()
    lam = [[one for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lam[i][j] = q
            lam[j][i] = q.inv()
    return canonical(grp, n, r, lam)


def test_embed_mixed_s21(grp):
    gmap, field = embed_mixed(s(grp, 2, 1))
    assert (field.m, field.n, field.t) == (1, 1, 0)


def test_embed_mixed_s22(grp):
    gmap, field = embed_mixed(s(grp, 2, 2))
    assert (field.m, field.n, field.t) == (2, 1, 0)
    assert 2 * field.m == 2 * 2  # target w-infdeg equals twice the pair count


def test_embed_mixed_torus_case(grp):
    gmap, field = embed_mixed(s(grp, 2, 0))
    assert field.m == 0
    assert (field.n, field.t) == (1, 0)


def test_embed_mixed_bounds_grid(grp):
    for n in (1, 2, 3):
        for r in range(n + 1):
            gmap, field = embed_mixed(s(grp, n, r))
            assert field.m == r
            if (n, r) == (1, 0):
                # the commutative line: one central variable, outside the bound
                assert (field.n, field.t) == (0, 1)
            else:
                assert n * (n - 1) <= 2 * field.n + field.t <= n * (n - 1) + r


def test_weyl_witness_s11(grp):
    gmap = weyl_lower_bound_witness(s(grp, 1, 1))
    assert isinstance(verify_homomorphism(gmap), Verified)


def test_weyl_witness_s22(grp):
    gmap = weyl_lower_bound_witness(s(grp, 2, 2))
    res = verify_homomorphism(gmap)
    assert isinstance(res, Verified)
    assert res.relations_checked == 6  # all pairs of the A_2 presentation


def test_weyl_witness_n3_r2(grp):
    gmap = weyl_lower_bound_witness(s(grp, 3, 2))
    assert isinstance(verify_homomorphism(gmap), Verified)


def test_composition_of_verified_maps(grp):
    # substitute one verified map into another and verify the composite
    src = parse_presentation(T21_SOURCE)
    tgt = certified_system(parse_presentation(LL2_TARGET))
    first = GeneratorMap(src, tgt, {
        "y1": tgt.word("y", "u"),
        "y2": tgt.word("v"),
        "w1": tgt.word("w"),
    })
    ident = {g: tgt.word(g) for g in ("w", "y", "u", "v")}

    def substitute(el, images, sys):
        out = sys.one().scale(Coeff.from_rational(sys.ring, 0))
        for word, coeff in el.terms.items():
            acc = sys.one().scale(coeff)
            for letter in word:
                acc = sys.multiply(acc, images[tgt.letters[letter]])
            out = out.add(acc)
        return out

    composite = GeneratorMap(src, tgt, {
        g: substitute(first.images[g], ident, tgt) for g in src.gens})
    assert isinstance(verify_homomorphism(composite), Verified)


def test_map_serialization_roundtrip():
    src = parse_presentation(T21_SOURCE)
    tgt = certified_system(parse_presentation(LL2_TARGET))
    gmap = GeneratorMap(src, tgt, {
        "y1": tgt.word("y", "u"),
        "y2": tgt.word("v"),
        "w1": tgt.word("w"),
    })
    text = format_generator_map(gmap)
    back = parse_generator_map(text, src, tgt)
    for g in src.gens:
        assert back.images[g] == gmap.images[g]


def test_embed_torus_is_embed_mixed_without_pairs(grp):
    # one plane construction: the torus embedding is the mixed one at r = 0
    rng = random.Random(8)
    q = grp.free_gen("q")
    one = grp.one()
    for n in (2, 3, 4):
        lam = [[one for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                lam[i][j] = q.pow(rng.randrange(-2, 3))
                lam[j][i] = lam[i][j].inv()
        t = torus(grp, lam)
        gt, ft = embed_torus(t)
        gm, fm = embed_mixed(CanonicalMixedAlgebra(grp, n, 0, t))
        assert gt.target.letters == gm.target.letters
        assert gt.images == gm.images
        assert (ft.m, ft.n, ft.t, ft.qs) == (fm.m, fm.n, fm.t, fm.qs)


# -- verification on reduced images against the raw-image reference ----------


@pytest.fixture
def verified_maps(monkeypatch):
    """Every map that the library verifies through ``verified``."""
    maps = []

    def recording(gmap, _orig=presentation.verify_homomorphism):
        maps.append(gmap)
        return _orig(gmap)
    monkeypatch.setattr(presentation, "verify_homomorphism", recording)
    return maps


def perturbed(gmap: GeneratorMap):
    """The map with its first image scaled by 2, and with its first and last
    images swapped."""
    gens, ring = gmap.source.gens, gmap.target.ring
    first, last = gens[0], gens[-1]
    yield GeneratorMap(gmap.source, gmap.target, {
        **gmap.images, first: gmap.images[first].scale(Coeff.from_rational(ring, 2))})
    if first != last:
        yield GeneratorMap(gmap.source, gmap.target, {
            **gmap.images, first: gmap.images[last], last: gmap.images[first]})


def assert_reduced_images_match_raw(maps):
    failing = 0
    for gmap in maps:
        for m in (gmap, *perturbed(gmap)):
            got = verify_homomorphism(m)
            assert got == raw_image_verify(m)
            failing += isinstance(got, FailingRelation)
    return failing


def test_reduced_images_match_raw_on_corpus_embeddings(verified_maps):
    run_corpus(("embed", "mixed"), ("embed", "torus"))
    assert len(verified_maps) >= 10
    assert assert_reduced_images_match_raw(verified_maps) > 0


@pytest.mark.parametrize("e", (1, 4))
def test_reduced_images_match_raw_on_localizations(e, verified_maps):
    for n in (1, 2, 3):
        for a in qweyl_grid(e, n):
            localize_to_mixed(a)
    assert verified_maps
    assert assert_reduced_images_match_raw(verified_maps) > 0


def test_refusals():
    g = ScalarGroup()
    with pytest.raises(ValueError, match="^no Weyl pairs to witness$"):
        weyl_lower_bound_witness(canonical(g, 1, 0, [[g.one()]]))
    sys = certified_system(parse_presentation("generators a, b\n"))
    src = parse_presentation("generators a\n")
    two = Coeff.from_rational(sys.ring, 2)
    for image, message in [(sys.word("a").add(sys.word("b")),
                             "only single-word images are serializable"),
                            (sys.word("a").scale(two), "image prefactor is not a scalar")]:
        with pytest.raises(ValueError) as err:
            format_generator_map(GeneratorMap(src, sys, {"a": image}))
        assert str(err.value) == message
