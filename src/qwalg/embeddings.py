"""Constructive embeddings into mixed Weyl presentations, with every map
verified as a homomorphism by the rewrite engine.

Injectivity of these embeddings is a theorem about leading terms in the
ambient series fields and is taken as given; what the engine certifies is
that the generator images satisfy every defining relation of the source.
The map types and the check itself live in ``presentation``, next to the
relation semantics they use, and are re-exported here; ``qwa`` reads and
writes maps as text.
"""
from __future__ import annotations

from .mixed import CanonicalMixedAlgebra, MixedWeylField, eulerian_presentation
from .presentation import (  # the map types and the check are re-exported
    FailingRelation, GeneratorMap, Presentation, Verified, certified_system, verified,
    verify_homomorphism)
from .torus import QuantumTorus


# ---------------------------------------------------------------------------
# Plane embeddings: one quantum plane or commuting pair per generator pair.


def _plane_embedding(source: Presentation, group, n: int, r: int, deg):
    """Map y_1..y_n (and w_1..w_r) into r derivation pairs (t_i, a_i) with
    [t_i, a_i] = a_i, tensored with one plane (u_{i,j}, v_{i,j}) of weight
    lambda_{i,j} per pair i < j (a commuting pair when the weight is 1),
    read off the degrees ``deg`` of a checked torus.

    y_i goes to a_i (for i <= r) times v_{1,i} ... v_{i-1,i} u_{i,i+1} ...
    u_{i,n}, one letter from each plane it meets, and w_i to t_i; this
    unbraids every pair at once.  Returns the verified map and the target's
    Weyl-field data (m = r, planes, centrals), where 2 planes + centrals
    = n(n-1), except that the commutative line (n = 1, r = 0) goes to one
    central variable z1.
    """
    if n == 1 and r == 0:
        sys = certified_system(Presentation.from_items(group, ("z1",), []))
        gmap = GeneratorMap(source, sys, {"y1": sys.word("z1")})
        verified(gmap, "plane embedding")
        return gmap, MixedWeylField(group, 0, 0, 1, ())
    names, items = [], []
    for i in range(r):
        items.append((len(names), len(names) + 1, None))
        names += [f"t{i+1}", f"a{i+1}"]
    pairs, planes = [(i, j) for i in range(n) for j in range(i + 1, n)], []
    for (i, j) in pairs:
        if any(deg[i][j]):
            planes.append(deg[i][j])
            items.append((len(names), len(names) + 1, deg[i][j]))
        names += [f"u{i+1}_{j+1}", f"v{i+1}_{j+1}"]
    sys = certified_system(Presentation.from_items(group, tuple(names), items))
    images = {}
    for i in range(n):
        word = [f"a{i+1}"] if i < r else []
        word += [f"v{k+1}_{i+1}" for k in range(i)]
        word += [f"u{i+1}_{j+1}" for j in range(i + 1, n)]
        images[f"y{i+1}"] = sys.word(*word)
    for i in range(r):
        images[f"w{i+1}"] = sys.word(f"t{i+1}")
    gmap = GeneratorMap(source, sys, images)
    verified(gmap, "plane embedding")
    centrals = 2 * (len(pairs) - len(planes))
    return gmap, MixedWeylField(group, r, len(planes), centrals, planes)


def embed_torus(torus) -> tuple[GeneratorMap, MixedWeylField]:
    """Embed the quantum affine space of a weight matrix into a tensor product
    of quantum planes and central pairs (the plane embedding with r = 0)."""
    return _plane_embedding(torus.to_presentation(), torus.group, torus.n, 0,
                            torus.degrees())


def embed_mixed(s: CanonicalMixedAlgebra) -> tuple[GeneratorMap, MixedWeylField]:
    """Embed the derivation presentation of a canonical mixed algebra into a
    tensor product of r derivation pairs, quantum planes, and central pairs."""
    return _plane_embedding(eulerian_presentation(s), s.group, s.n, s.r,
                            s.torus().degrees())


def weyl_lower_bound_witness(s: CanonicalMixedAlgebra) -> GeneratorMap:
    """Exhibit a classical Weyl algebra A_r inside the algebra tensored with
    its transposed parameter torus.

    With y'_k the transposed-torus generators, Y_k = y_k y'_k and
    X_k = y'_k^{-1} x_k satisfy the A_r relations exactly; the opposite
    twists cancel the quantum weights.  This witnesses that any Weyl field
    embedding needs at least r Weyl pairs.
    """
    group = s.group
    n, r = s.n, s.r
    if r == 0:
        raise ValueError("no Weyl pairs to witness")
    deg = s.torus().degrees()
    names = s.gens() + tuple(f"yt{i+1}" for i in range(n))
    items = s.relation_items() + [(n + r + i, n + r + j, deg[j][i])
                                  for i in range(n) for j in range(i + 1, n)]
    sys = certified_system(Presentation.from_items(group, names, items))
    for k in range(r):
        sys, _ = sys.invert_generator(f"yt{k+1}")
    ones = QuantumTorus.from_relations(group, r, [])
    source = CanonicalMixedAlgebra(group, r, r, ones).to_presentation(
        names=tuple(f"Y{k+1}" for k in range(r)) + tuple(f"X{k+1}" for k in range(r)))
    images = {}
    for k in range(r):
        images[f"Y{k+1}"] = sys.word(f"y{k+1}", f"yt{k+1}")
        images[f"X{k+1}"] = sys.word(f"yt{k+1}^-1", f"x{k+1}")
    gmap = GeneratorMap(source, sys, images)
    verified(gmap, "Weyl witness")
    return gmap
