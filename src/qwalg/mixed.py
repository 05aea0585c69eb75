"""Canonical mixed algebras, mixed Weyl fields, graph reduction with
certificates, rational invariants, and the equivalence decision procedures.

The canonical algebra with parameters (n, r, Lambda) has generators
y_1..y_n, x_1..x_r and relations

    y_i y_j = lambda_{i,j} y_j y_i          x_i y_i = y_i x_i + 1
    x_i y_j = lambda_{i,j}^{-1} y_j x_i     x_i x_j = lambda_{i,j} x_j x_i

Every admissible quantum/Weyl presentation reduces to exactly one of these,
with n + r the generator count and 2r the rank of the Weyl-weight matrix;
the reduction emits a replayable certificate of elementary generator
changes.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import intlattice
from .cyclo import Coeff
from .presentation import (Additive, AddMultiple, Eulerian, GeneratorMap,
                           Multiplicative, Op, Permute, Presentation,
                           PresentationError, Scale, apply_certificate,
                           certified_system, check_admissible, verified,
                           weyl_matrix)
from .rewrite import Element
from .scalars import ScalarGroup, SubgroupDescription, subgroup_canonical_form
from .torus import (Iso, NotIso, QuantumTorus, Violation, central_lattice,
                    check_morphism, is_simple, uniparameter_exponents,
                    uniparameter_iso_decide)


class InadmissiblePresentation(PresentationError):
    def __init__(self, witness: str):
        super().__init__(f"presentation is inadmissible; violating triple {witness}")
        self.witness = witness


class CanonicalMixedAlgebra:
    """The triple (n, r, Lambda) with Lambda multiplicatively antisymmetric."""

    def __init__(self, group: ScalarGroup, n: int, r: int, lam):
        if n < 1 or not (0 <= r <= n):
            raise ValueError("need n >= 1 and 0 <= r <= n")
        self.group = group
        self.n = n
        self.r = r
        self.lam = tuple(tuple(row) for row in lam)
        if len(self.lam) != n or any(len(row) != n for row in self.lam):
            raise ValueError(f"Lambda must be {n} x {n}")
        self._torus = QuantumTorus(group, self.lam)  # validates

    @staticmethod
    def of_torus(t: QuantumTorus, r: int) -> "CanonicalMixedAlgebra":
        """The algebra with r Weyl pairs over a torus whose weights are
        antisymmetric by construction: the torus is not checked again."""
        a = CanonicalMixedAlgebra.__new__(CanonicalMixedAlgebra)
        a.group, a.n, a.r, a._torus = t.group, t.n, r, t
        a.lam = tuple(map(tuple, t.lam))
        return a

    def torus(self) -> QuantumTorus:
        return self._torus

    def gens(self) -> tuple[str, ...]:
        return tuple(f"y{i+1}" for i in range(self.n)) + \
            tuple(f"x{i+1}" for i in range(self.r))

    def to_presentation(self, names=None) -> Presentation:
        names = tuple(names) if names else self.gens()
        n, r = self.n, self.r
        items = []
        for i in range(n):
            for j in range(i + 1, n):
                items.append((i, j, Multiplicative(self.lam[i][j])))
        for i in range(r):
            items.append((n + i, i, Additive(1)))  # x_i y_i = y_i x_i + 1
            for j in range(n):
                if j != i:  # x_i y_j = lam_ij^-1 y_j x_i, read from y_j's side
                    items.append((j, n + i, Multiplicative(self.lam[i][j])))
            for j in range(i + 1, r):
                items.append((n + i, n + j, Multiplicative(self.lam[i][j])))
        return Presentation.build(self.group, names, items)

    def __eq__(self, other):
        if not isinstance(other, CanonicalMixedAlgebra):
            return NotImplemented
        return (self.group, self.n, self.r, self.lam) == \
            (other.group, other.n, other.r, other.lam)


class MixedWeylField:
    """Fraction field data (m, n, t, qbar): m Weyl pairs, n quantum planes with
    weights qbar (each != 1), t central variables."""

    def __init__(self, group: ScalarGroup, m: int, n: int, t: int, qs):
        qs = tuple(qs)
        if min(m, n, t) < 0 or len(qs) != n:
            raise ValueError("inconsistent mixed Weyl data")
        for q in qs:
            if q.group != group:
                raise ValueError("plane weight outside the declared group")
            if q.is_one():
                raise ValueError("plane weights must differ from 1")
        self.group = group
        self.m = m
        self.n = n
        self.t = t
        self.qs = qs


# ---------------------------------------------------------------------------
# Graph reduction.


class ReductionCertificate(NamedTuple):
    """Elementary generator changes taking the input to the canonical
    presentation, plus the final (x_k, y_k) pairing by original names."""
    ops: tuple[Op, ...]
    pairing: tuple[tuple[str, str], ...]

    def describe(self) -> str:
        out = []
        for op in self.ops:
            if isinstance(op, Scale):
                out.append(f"scale({op.index},{op.factor})")
            elif isinstance(op, AddMultiple):
                out.append(f"add({op.index},{op.other},{op.coeff})")
            else:
                out.append("permute(" + ",".join(map(str, op.order)) + ")")
        return ";".join(out)


def _weyl_degree(p: Presentation) -> list[int]:
    deg = [0] * p.n
    for (i, j), rel in p.rels.items():
        if isinstance(rel, Additive) and rel.weight != 0:
            deg[i] += 1
            deg[j] += 1
    return deg


def reduce_to_canonical(p: Presentation) -> tuple[CanonicalMixedAlgebra, ReductionCertificate]:
    """Reduce an admissible presentation to its canonical mixed algebra.

    Repeatedly picks the lowest vertex that carries a Weyl edge but is not
    yet in an isolated Weyl pair, combines its neighbors right-to-left into
    a single gcd-weight edge, eliminates the rest, and detaches the
    resulting pair from the partner's remaining Weyl edges.  A final
    rational scaling normalizes all pair weights to 1, and a permutation
    puts the generators in canonical order.
    """
    report = check_admissible(p)
    if not report.admissible:
        raise InadmissiblePresentation(report.triple(p.gens))
    rank_in = intlattice.rank(weyl_matrix(p))
    work = p
    ops: list[Op] = []

    def do(op: Op):
        nonlocal work
        if isinstance(op, Scale) and op.factor == 1:
            return
        work = apply_certificate(work, [op])
        ops.append(op)

    guard = 0
    while True:
        guard += 1
        if guard > 10 * p.n + 10:
            raise AssertionError("graph reduction failed to terminate")
        deg = _weyl_degree(work)
        isolated = set()
        for (i, j), rel in work.rels.items():
            if isinstance(rel, Additive) and rel.weight != 0 \
                    and deg[i] == 1 and deg[j] == 1:
                isolated.update((i, j))
        candidates = [v for v in range(work.n) if deg[v] >= 1 and v not in isolated]
        if not candidates:
            break
        x = candidates[0]
        nbrs = [t for t in range(work.n)
                if t != x and (work.additive_weight(x, t) or 0) != 0]
        # Combine neighbors right-to-left until the first one carries the gcd.
        for k in range(len(nbrs) - 2, -1, -1):
            a, b = nbrs[k], nbrs[k + 1]
            pa = work.additive_weight(x, a)
            pb = work.additive_weight(x, b)
            if pa % pb == 0:
                nbrs[k], nbrs[k + 1] = b, a
                continue
            if pb % pa == 0:
                continue
            d, u, v = _ext_gcd(pa, pb)
            do(Scale(a, Fraction(u)))
            do(AddMultiple(a, b, v))
        # Eliminate every neighbor beyond the first.
        lead = nbrs[0]
        p_lead = work.additive_weight(x, lead)
        for t in nbrs[1:]:
            pt = work.additive_weight(x, t)
            if pt:
                do(AddMultiple(t, lead, -(pt // p_lead)))
        # Normalize the pair weight seen from x to +1, then strip the
        # partner's remaining Weyl edges.
        do(Scale(x, Fraction(1, work.additive_weight(x, lead))))
        for t in range(work.n):
            if t in (x, lead):
                continue
            mt = work.additive_weight(lead, t)
            if mt:
                do(AddMultiple(t, x, mt))

    # Collect the isolated pairs, orient (x, y) with weight +1, scale to 1.
    pairs = []
    for (i, j), rel in sorted(work.rels.items()):
        if isinstance(rel, Additive) and rel.weight != 0:
            xi, yi = (i, j) if rel.weight > 0 else (j, i)
            w = abs(rel.weight)
            if w != 1:
                do(Scale(xi, Fraction(1, w)))
            pairs.append((xi, yi))
    pairs.sort(key=lambda t: min(t))
    r = len(pairs)
    n = work.n - r
    others = [v for v in range(work.n) if all(v not in pr for pr in pairs)]
    order = [y for _, y in pairs] + others + [x for x, _ in pairs]
    do(Permute(tuple(order)))
    one = p.group.one()
    lam = [[one if i == j else work.quantum_weight(i, j) for j in range(n)]
           for i in range(n)]
    algebra = CanonicalMixedAlgebra(p.group, n, r, lam)
    canon = algebra.to_presentation()
    if work.rels != canon.rels:
        raise AssertionError("reduced table does not match the canonical table")
    if 2 * r != rank_in:
        raise AssertionError("Weyl matrix rank does not match the pair count")
    if not check_admissible(work).admissible:
        raise AssertionError("reduced presentation lost admissibility")
    pairing = tuple((work.gens[n + k], work.gens[k]) for k in range(r))
    return algebra, ReductionCertificate(tuple(ops), pairing)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g > 0."""
    old_r, rr = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while rr:
        q = old_r // rr
        old_r, rr = rr, old_r - q * rr
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def replay_certificate(p: Presentation, cert: ReductionCertificate) -> Presentation:
    return apply_certificate(p, cert.ops)


# ---------------------------------------------------------------------------
# Presentations derived from a canonical algebra.


def eulerian_presentation(s: CanonicalMixedAlgebra) -> Presentation:
    """Generators y_1..y_n, w_1..w_r with [w_i, y_i] = y_i and the quantum
    y-relations; presents the same fraction field as s."""
    n, r = s.n, s.r
    names = tuple(f"y{i+1}" for i in range(n)) + tuple(f"w{i+1}" for i in range(r))
    items = []
    for i in range(n):
        for j in range(i + 1, n):
            items.append((i, j, Multiplicative(s.lam[i][j])))
    for i in range(r):
        items.append((n + i, i, Eulerian(n + i)))
    return Presentation.build(s.group, names, items)


# ---------------------------------------------------------------------------
# Invariants.


class AlgebraInvariants(NamedTuple):
    gk_dim: int
    gk_trdeg: int
    w_supdeg: int
    e_is_field: bool           # the trace invariant E is k (else 0)
    g_subgroup: SubgroupDescription
    center_basis: tuple[tuple[int, ...], ...]
    center_rank: int
    torus_simple: bool


def center_lattices(s: CanonicalMixedAlgebra) -> tuple[list[list[int]], list[list[int]]]:
    """The central lattice of the parameter torus, and its sublattice on the
    coordinates k >= r, which leaves out the Weyl-paired y's.

    The central lattice comes in Hermite normal form, and the rows of an
    echelon basis whose first r entries vanish are exactly the Hermite basis
    of its part on the coordinates k >= r."""
    full = central_lattice(s.torus())
    return full, [row for row in full if not any(row[:s.r])]


def invariants(s: CanonicalMixedAlgebra) -> AlgebraInvariants:
    full, center = center_lattices(s)
    return AlgebraInvariants(
        gk_dim=s.n + s.r,
        gk_trdeg=s.n + s.r,
        w_supdeg=2 * s.r,
        e_is_field=s.r >= 1,
        g_subgroup=g_invariant(s),
        center_basis=tuple(tuple(row) for row in center),
        center_rank=len(center),
        torus_simple=not full,
    )


class MixedWeylInvariants(NamedTuple):
    gk_trdeg: int
    w_infdeg: int
    w_supdeg: int
    center_rank: int


def mixed_weyl_invariants(d: MixedWeylField) -> MixedWeylInvariants:
    torsion_planes = sum(1 for q in d.qs if not any(q.free))
    return MixedWeylInvariants(
        gk_trdeg=2 * d.m + 2 * d.n + d.t,
        w_infdeg=2 * d.m,
        w_supdeg=2 * d.m,
        center_rank=torsion_planes + d.t,
    )


# ---------------------------------------------------------------------------
# Equivalence decisions.


class Equivalent(NamedTuple):
    reason: str                # EQ_SEMICLASSICAL
    h: tuple[tuple[int, ...], ...]
    witness_forward: object    # GeneratorMap, engine-verified
    witness_backward: object
    detail: str = ""


class NotEquivalent(NamedTuple):
    reason: str                # NEQ_GK | NEQ_WSUPDEG | NEQ_G | NEQ_TORUS
    detail: str = ""


class Inconclusive(NamedTuple):
    detail: str = ""


def g_invariant(s: CanonicalMixedAlgebra) -> SubgroupDescription:
    return subgroup_canonical_form(
        s.group, [s.lam[i][j] for i in range(s.n) for j in range(i + 1, s.n)])


def detect_uniparameter_symbol(a: CanonicalMixedAlgebra,
                               b: CanonicalMixedAlgebra) -> str | None:
    for name in a.group.free_symbols:
        if uniparameter_exponents(a.torus(), name) is not None and \
                uniparameter_exponents(b.torus(), name) is not None:
            return name
    return None


def _is_commutative(s: CanonicalMixedAlgebra) -> bool:
    return all(s.lam[i][j].is_one() for i in range(s.n) for j in range(s.n))


def equivalence_decide(a: CanonicalMixedAlgebra, b: CanonicalMixedAlgebra,
                       param: str | None = None, supplied_h=None):
    """Decide rational equivalence as far as the invariants allow.

    Necessary conditions: matching generator counts, matching Weyl pair
    counts, matching derived-unit subgroups, and (for simple tori, or for
    any uniparameter semiclassical pair) isomorphic parameter tori.  In the
    semiclassical case n = r a torus isomorphism is also sufficient, and
    the returned witness maps are verified by the rewrite engine both ways.
    """
    if a.group != b.group:
        raise ValueError("algebras must share a scalar group")
    if a.r != b.r:
        return NotEquivalent("NEQ_WSUPDEG", f"w-supdeg {2 * a.r} vs {2 * b.r}")
    if a.n + a.r != b.n + b.r:
        return NotEquivalent("NEQ_GK", f"gk {a.n + a.r} vs {b.n + b.r}")
    ga, gb = g_invariant(a), g_invariant(b)
    if ga != gb:
        return NotEquivalent("NEQ_G", "derived-unit subgroups differ")
    ta, tb = a.torus(), b.torus()

    if supplied_h is not None:
        fwd = check_morphism(ta, tb, supplied_h)
        if isinstance(fwd, Violation) or abs(intlattice.det(supplied_h)) != 1:
            raise ValueError("supplied matrix is not a torus isomorphism")
        if a.n == a.r:
            wf, wb = _semiclassical_witness(a, b, supplied_h,
                                            intlattice.matinv_unimodular(supplied_h))
            return Equivalent("EQ_SEMICLASSICAL",
                              tuple(tuple(r) for r in supplied_h), wf, wb)
        return Inconclusive("tori isomorphic; sufficiency is open for n > r")

    if _is_commutative(a) and _is_commutative(b):
        if a.n == a.r:
            h = intlattice.identity(a.n)
            wf, wb = _semiclassical_witness(a, b, h, h)
            return Equivalent("EQ_SEMICLASSICAL", tuple(tuple(r) for r in h), wf, wb)
        return Inconclusive("identical commutative data; sufficiency open for n > r")

    param = param or detect_uniparameter_symbol(a, b)
    if param is not None:
        res = uniparameter_iso_decide(ta, tb, param)
        if isinstance(res, NotIso):
            if a.n == a.r or (is_simple(ta) and is_simple(tb)):
                return NotEquivalent(
                    "NEQ_TORUS",
                    f"skew forms {res.canonical_1} vs {res.canonical_2}")
            return Inconclusive("tori not isomorphic but not simple; no verdict")
        if isinstance(res, Iso):
            if a.n == a.r:
                wf, wb = _semiclassical_witness(a, b, res.h, res.h_inv)
                return Equivalent("EQ_SEMICLASSICAL", res.h, wf, wb,
                                  detail=f"divisors {res.canonical}")
            return Inconclusive("all necessary invariants match; "
                                "sufficiency is open for n > r")
    if a.n == a.r and is_simple(ta) and is_simple(tb):
        return Inconclusive("semiclassical with simple tori: equivalent exactly "
                            "when the tori are isomorphic; supply a matrix to decide")
    return Inconclusive("invariants do not separate the algebras")


def _semiclassical_witness(a: CanonicalMixedAlgebra, b: CanonicalMixedAlgebra,
                           h, hinv):
    """Both-ways generator maps on the localized derivation presentations.

    Forward: y_i -> prod_k y'_k^(h_{k,i}),  w_j -> sum_l hinv_{j,l} w'_l,
    with hinv the inverse matrix; backward swaps the roles.  Each map is
    verified relation-by-relation by the rewrite engine.
    """
    fwd = _pigne_map(a, b, h, hinv)
    back = _pigne_map(b, a, hinv, h)
    for gm in (fwd, back):
        verified(gm, "equivalence witness")
    return fwd, back


def _pigne_map(src: CanonicalMixedAlgebra, dst: CanonicalMixedAlgebra, h, hinv):
    n = src.n
    source = eulerian_presentation(src)
    target_p = eulerian_presentation(dst)
    sys = certified_system(target_p)
    for k in range(n):
        sys, _ = sys.invert_generator(f"y{k+1}")
    images = {}
    for i in range(n):
        word = []
        for k in range(n):
            e = h[k][i]
            name = f"y{k+1}" if e >= 0 else f"y{k+1}^-1"
            word += [name] * abs(e)
        images[f"y{i+1}"] = sys.word(*word) if word else sys.one()
    for j in range(n):
        el = Element(sys.ring)
        for l in range(n):
            if hinv[j][l]:
                el = el.add(sys.word(f"w{l+1}").scale(
                    Coeff.from_rational(sys.ring, hinv[j][l])))
        images[f"w{j+1}"] = el
    return GeneratorMap(source, sys, images)


def cross_equivalence_necessary(a: CanonicalMixedAlgebra, d: MixedWeylField):
    """Necessary separations between a canonical mixed algebra and a mixed
    Weyl field: generator count, Weyl degree and the trace invariant G.  The
    trace invariant E (k exactly when there is a Weyl pair) needs no check
    of its own: equal Weyl degrees give equal pair counts, so equal E."""
    gka = a.n + a.r
    gkd = 2 * d.m + 2 * d.n + d.t
    if gka != gkd:
        return NotEquivalent("NEQ_GK", f"gk {gka} vs {gkd}")
    if 2 * a.r != 2 * d.m:
        return NotEquivalent("NEQ_WSUPDEG", f"w-supdeg {2 * a.r} vs {2 * d.m}")
    ga = g_invariant(a)
    gd = subgroup_canonical_form(d.group, list(d.qs))
    if ga != gd:
        return NotEquivalent("NEQ_G", "derived-unit subgroups differ")
    detail = "all comparable invariants agree"
    if a.n == a.r:
        detail += ("; a semiclassical field can only be the purely classical "
                   "Weyl field, so only m = n(gk/2), n = t = 0 with trivial "
                   "weight subgroup remains possible")
    return Inconclusive(detail)
