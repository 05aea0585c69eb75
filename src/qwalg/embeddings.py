"""Constructive embeddings into mixed Weyl presentations, with every map
verified as a homomorphism by the rewrite engine.

Injectivity of these embeddings is a theorem about leading terms in the
ambient series fields and is taken as given; what the engine certifies is
that the generator images satisfy every defining relation of the source.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Coeff, coeff_to_scalar
from .presentation import (Additive, Eulerian, Multiplicative, Presentation,
                           certified_system)
from .rewrite import Element, ReductionSystem
from .scalars import format_scalar


@dataclass
class GeneratorMap:
    """Images of the source generators inside a certified target system."""
    source: Presentation
    target: ReductionSystem
    images: dict[str, Element]

    def image(self, name: str) -> Element:
        return self.images[name]


@dataclass(frozen=True)
class Verified:
    relations_checked: int


@dataclass(frozen=True)
class FailingRelation:
    pair: tuple[str, str]
    defect: Element


def verify_homomorphism(gmap: GeneratorMap) -> Verified | FailingRelation:
    """Reduce image(LHS) - image(RHS) of every source relation to normal form.

    Absent pairs commute in the source, so their images must commute too;
    all pairs are checked, not only the listed ones.
    """
    src = gmap.source
    sys = gmap.target
    ring = sys.ring
    count = 0
    for i in range(src.n):
        for j in range(i + 1, src.n):
            rel = src.rel(i, j)
            a = gmap.images[src.gens[i]]
            b = gmap.images[src.gens[j]]
            ab = a.concat(b)
            ba = b.concat(a)
            if isinstance(rel, Additive):
                defect = ab.sub(ba)
                if rel.weight:
                    defect = defect.sub(
                        Element.from_word(ring, (), Coeff.from_rational(ring, rel.weight)))
            elif isinstance(rel, Multiplicative):
                defect = ab.sub(ba.scale(Coeff.from_scalar(ring, rel.weight)))
            else:
                w_img, y_img = (a, b) if rel.w_index == i else (b, a)
                defect = w_img.concat(y_img).sub(y_img.concat(w_img)).sub(y_img)
            if not sys.normal_form(defect).is_zero():
                return FailingRelation((src.gens[i], src.gens[j]),
                                       sys.normal_form(defect))
            count += 1
    return Verified(count)


def parse_generator_map(text: str, source: Presentation,
                        target: ReductionSystem) -> GeneratorMap:
    """Parse ``map { g -> scalar * word ; ... }`` with word factors g or g^-1.

    Factors named g^-1 refer to the target's adjoined inverse letters.
    """
    import re
    from .qwa import ParseError, parse_scalar_literal
    body = text.strip()
    m = re.match(r"^map\s*\{(.*)\}\s*$", body, re.S)
    if not m:
        raise ParseError(1, "expected map { ... }")
    images: dict[str, Element] = {}
    entries = [e.strip() for chunk in m.group(1).split(";")
               for e in chunk.splitlines()]
    for entry in entries:
        entry = entry.strip()
        if not entry or entry.startswith("#"):
            continue
        em = re.match(r"^(\S+)\s*->\s*(.*)$", entry)
        if not em:
            raise ParseError(1, f"bad map entry {entry!r}")
        name, rhs = em.group(1), em.group(2).strip()
        if name not in source.gens:
            raise ParseError(1, f"map names unknown source generator {name!r}")
        factors = [f.strip() for f in rhs.split("*")]
        scalar = target.group.one()
        word: list[str] = []
        for f in factors:
            sub = f.split()
            if len(sub) > 1 or (sub and sub[0] in target.letters):
                for tok in sub:
                    mm = re.match(r"^(\S+?)\^-1$", tok)
                    if mm and f"{mm.group(1)}^-1" in target.letters:
                        word.append(f"{mm.group(1)}^-1")
                    elif tok in target.letters:
                        word.append(tok)
                    else:
                        raise ParseError(1, f"unknown target factor {tok!r}")
            elif f == "1" and not word:
                continue
            else:
                scalar = scalar.mul(parse_scalar_literal(target.group, f))
        el = target.word(*word) if word else target.one()
        images[name] = el.scale(Coeff.from_scalar(target.ring, scalar))
    missing = [g for g in source.gens if g not in images]
    if missing:
        raise ParseError(1, f"map is missing images for {missing}")
    return GeneratorMap(source, target, images)


def format_generator_map(gmap: GeneratorMap) -> str:
    """Serialization for monomial maps: map { g -> scalar * word ; ... }."""
    parts = []
    for name in gmap.source.gens:
        el = gmap.images[name]
        if len(el.terms) != 1:
            raise ValueError("only single-word images are serializable")
        (word, coeff), = el.terms.items()
        s = coeff_to_scalar(coeff)
        if s is None:
            raise ValueError("image prefactor is not a scalar")
        factors = " ".join(gmap.target.letters[i] for i in word) or "1"
        pre = "" if s.is_one() else f"{format_scalar(s)} * "
        parts.append(f"  {name} -> {pre}{factors}")
    return "map {\n" + "\n".join(parts) + "\n}\n"


# ---------------------------------------------------------------------------
# The torus embedding: one quantum plane or commuting pair per generator pair.


def _plane_names(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def embed_torus(torus) -> tuple[GeneratorMap, "object"]:
    """Embed the quantum affine space of a weight matrix into a tensor product
    of quantum planes and central pairs.

    Generator i maps to v^1_i ... v^{i-1}_i u^i_{i+1} ... u^i_n, one letter
    from each plane it meets; plane (i, j) carries the weight lambda_{i,j}.
    Returns the verified map and the mixed Weyl data (m=0, planes, centrals).
    """
    from .mixed import MixedWeylField
    lam = torus.lam
    n = torus.n
    group = torus.group
    source = torus.to_presentation()
    names = []
    items = []
    plane_index = {}
    for (i, j) in _plane_names(n):
        ui = len(names)
        names += [f"u{i+1}_{j+1}", f"v{i+1}_{j+1}"]
        plane_index[(i, j)] = ui
        if not lam[i][j].is_one():
            items.append((ui, ui + 1, Multiplicative(lam[i][j])))
    target_p = Presentation.build(group, tuple(names), items)
    sys = certified_system(target_p)
    images = {}
    for i in range(n):
        word = []
        for k in range(i):
            word.append(f"v{k+1}_{i+1}")
        for j in range(i + 1, n):
            word.append(f"u{i+1}_{j+1}")
        images[f"y{i+1}"] = sys.word(*word) if word else sys.one()
    gmap = GeneratorMap(source, sys, images)
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise AssertionError(f"torus embedding failed verification: {res}")
    weights = [lam[i][j] for (i, j) in _plane_names(n) if not lam[i][j].is_one()]
    r = len(weights)
    t = 2 * (len(_plane_names(n)) - r)
    field = MixedWeylField(group, 0, r, t, weights)
    return gmap, field


def embed_mixed(s) -> tuple[GeneratorMap, "object"]:
    """Embed the derivation presentation of a canonical mixed algebra into a
    tensor product of r derivation pairs, quantum planes, and central pairs.

    Each counting generator w_i goes to a fresh pair generator t_i with
    [t_i, a_i] = a_i, and y_i picks up the factor a_i in front of its torus
    image, which is the two-variable unbraiding map done for every pair at
    once; the target's Weyl-field data has m = r and 2s + t = n(n-1).
    """
    from .mixed import CanonicalMixedAlgebra, MixedWeylField, eulerian_presentation
    group = s.group
    n, r = s.n, s.r
    source = eulerian_presentation(s)
    if n == 1 and r == 0:
        target_p = Presentation.build(group, ("z1",), [])
        sys = certified_system(target_p)
        gmap = GeneratorMap(source, sys, {"y1": sys.gen("z1")})
        res = verify_homomorphism(gmap)
        assert isinstance(res, Verified)
        return gmap, MixedWeylField(group, 0, 0, 1, ())
    names = []
    items = []
    for i in range(r):
        ti = len(names)
        names += [f"t{i+1}", f"a{i+1}"]
        items.append((ti, ti + 1, Eulerian(ti)))
    plane_base = {}
    for (i, j) in _plane_names(n):
        ui = len(names)
        plane_base[(i, j)] = ui
        names += [f"u{i+1}_{j+1}", f"v{i+1}_{j+1}"]
        if not s.lam[i][j].is_one():
            items.append((ui, ui + 1, Multiplicative(s.lam[i][j])))
    target_p = Presentation.build(group, tuple(names), items)
    sys = certified_system(target_p)
    images = {}
    for i in range(n):
        word = []
        if i < r:
            word.append(f"a{i+1}")
        for k in range(i):
            word.append(f"v{k+1}_{i+1}")
        for j in range(i + 1, n):
            word.append(f"u{i+1}_{j+1}")
        images[f"y{i+1}"] = sys.word(*word)
    for i in range(r):
        images[f"w{i+1}"] = sys.word(f"t{i+1}")
    gmap = GeneratorMap(source, sys, images)
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise AssertionError(f"mixed embedding failed verification: {res}")
    weights = [s.lam[i][j] for (i, j) in _plane_names(n) if not s.lam[i][j].is_one()]
    planes = len(weights)
    centrals = 2 * (len(_plane_names(n)) - planes)
    field = MixedWeylField(group, r, planes, centrals, weights)
    if not (n * (n - 1) <= 2 * planes + centrals <= n * (n - 1) + r):
        raise AssertionError("target size bounds violated")
    return gmap, field


def weyl_lower_bound_witness(s) -> GeneratorMap:
    """Exhibit a classical Weyl algebra A_r inside the algebra tensored with
    its transposed parameter torus.

    With y'_k the transposed-torus generators, Y_k = y_k y'_k and
    X_k = y'_k^{-1} x_k satisfy the A_r relations exactly; the opposite
    twists cancel the quantum weights.  This witnesses that any Weyl field
    embedding needs at least r Weyl pairs.
    """
    from .mixed import CanonicalMixedAlgebra
    group = s.group
    n, r = s.n, s.r
    if r == 0:
        raise ValueError("no Weyl pairs to witness")
    base = s.to_presentation()
    names = list(base.gens) + [f"yt{i+1}" for i in range(n)]
    items = [(i, j, rel) for (i, j), rel in base.rels.items()]
    for i in range(n):
        for j in range(i + 1, n):
            items.append((n + r + i, n + r + j, Multiplicative(s.lam[j][i])))
    target_p = Presentation.build(group, tuple(names), items)
    sys = certified_system(target_p)
    for k in range(r):
        sys, _ = sys.invert_generator(f"yt{k+1}")
    ones = [[group.one() for _ in range(r)] for _ in range(r)]
    source = CanonicalMixedAlgebra(group, r, r, ones).to_presentation(
        names=tuple(f"Y{k+1}" for k in range(r)) + tuple(f"X{k+1}" for k in range(r)))
    images = {}
    for k in range(r):
        images[f"Y{k+1}"] = sys.word(f"y{k+1}", f"yt{k+1}")
        images[f"X{k+1}"] = sys.word(f"yt{k+1}^-1", f"x{k+1}")
    gmap = GeneratorMap(source, sys, images)
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise AssertionError(f"Weyl witness failed verification: {res}")
    return gmap
