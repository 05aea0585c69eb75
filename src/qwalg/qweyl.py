"""Multiparameter quantum Weyl algebras: construction with a certified
ordered-monomial basis, localization onto a canonical mixed algebra with
full symbolic verification, and the induced invariants.

The algebra on x_1, y_1, ..., x_n, y_n with parameters (qbar, Lambda) has,
for i < j,

    y_i y_j = lambda_{i,j} y_j y_i          x_i x_j = q_i lambda_{i,j} x_j x_i
    x_i y_j = lambda_{i,j}^{-1} y_j x_i     x_j y_i = q_i lambda_{i,j} y_i x_j
    x_j y_j = 1 + sum_{k<j} (q_k - 1) y_k x_k + q_j y_j x_j.

The elements z_j = x_j y_j - y_j x_j = 1 + sum_{k<=j} (q_k - 1) y_k x_k are
scalar-normal; inverting those with q_j != 1 produces generators satisfying
the canonical mixed relations with 2n - r quantum generators and the r
Weyl pairs given by the indices with q_j = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclo import Coeff, CoeffRing
from .embeddings import GeneratorMap, Verified, verify_homomorphism
from .mixed import (CanonicalMixedAlgebra, NotEquivalent, center_lattices,
                    equivalence_decide)
from .qwa import QWeylSpec
from .rewrite import Element, Failing, ReductionSystem, Rule
from .scalars import Scalar, ScalarGroup
from .torus import QuantumTorus


class VerificationError(RuntimeError):
    """An engine check that the theory guarantees has failed; a bug, not data."""


class QuantumWeylAlgebra:
    def __init__(self, group: ScalarGroup, n: int, qs, lam):
        if n < 1:
            raise ValueError("need n >= 1")
        qs = tuple(qs)
        if len(qs) != n:
            raise ValueError("need one quantization parameter per index")
        self.group = group
        self.n = n
        self.qs = qs
        self.lam = tuple(tuple(row) for row in lam)
        QuantumTorus(group, [list(row) for row in self.lam])  # antisymmetry check
        self._system = self._build_system()

    @staticmethod
    def from_spec(spec: QWeylSpec) -> "QuantumWeylAlgebra":
        return QuantumWeylAlgebra(spec.group, spec.n, spec.q, spec.lam)

    # Letter order: y1 < x1 < y2 < x2 < ...; every right-hand side is smaller.
    def _y(self, i: int) -> int:
        return 2 * i

    def _x(self, i: int) -> int:
        return 2 * i + 1

    def _build_system(self) -> ReductionSystem:
        ring = CoeffRing(self.group)
        letters = []
        for i in range(self.n):
            letters += [f"y{i+1}", f"x{i+1}"]
        rules = []
        one = Coeff.one(ring)

        def sc(s: Scalar) -> Coeff:
            return Coeff.from_scalar(ring, s)

        for j in range(self.n):
            for i in range(j):
                lam = self.lam[i][j]
                qi = self.qs[i]
                rules.append(Rule((self._y(j), self._y(i)),
                                  Element(ring, {(self._y(i), self._y(j)): sc(lam.inv())})))
                rules.append(Rule((self._x(j), self._x(i)),
                                  Element(ring, {(self._x(i), self._x(j)):
                                                 sc(qi.mul(lam).inv())})))
                rules.append(Rule((self._y(j), self._x(i)),
                                  Element(ring, {(self._x(i), self._y(j)): sc(lam)})))
                rules.append(Rule((self._x(j), self._y(i)),
                                  Element(ring, {(self._y(i), self._x(j)):
                                                 sc(qi.mul(lam))})))
        for j in range(self.n):
            terms = {(self._y(j), self._x(j)): sc(self.qs[j]), (): one}
            for k in range(j):
                qk = sc(self.qs[k]).sub(one)
                if not qk.is_zero():
                    terms[(self._y(k), self._x(k))] = qk
            rules.append(Rule((self._x(j), self._y(j)), Element(ring, terms)))
        sys = ReductionSystem(self.group, tuple(letters), rules)
        verdict = sys.check_confluence()
        if isinstance(verdict, Failing):
            raise VerificationError(f"quantum Weyl relations are not confluent "
                                    f"at {verdict.word}")
        return sys

    def system(self) -> ReductionSystem:
        return self._system

    def z_element(self, sys: ReductionSystem, i: int) -> Element:
        """z_i = 1 + sum_{k<=i} (q_k - 1) y_k x_k as an element of sys."""
        ring = sys.ring
        one = Coeff.one(ring)
        terms = {(): one}
        for k in range(i + 1):
            c = Coeff.from_scalar(ring, self.qs[k]).sub(one)
            if not c.is_zero():
                terms[(self._y(k), self._x(k))] = c
        return Element(ring, terms)

    @property
    def weyl_indices(self) -> list[int]:
        return [i for i in range(self.n) if self.qs[i].is_one()]

    @property
    def quantum_indices(self) -> list[int]:
        return [i for i in range(self.n) if not self.qs[i].is_one()]


def localized_lambda(a: QuantumWeylAlgebra) -> CanonicalMixedAlgebra:
    """The canonical mixed algebra of the localization, by the block formula.

    In the block order (z'-block, y-block) the weight matrix is
    [[1, M], [M', Lambda]] with M carrying q_{i_k} against y_{i_k} and M'
    its inverse transposed pattern; a final permutation lists the r
    Weyl-paired y's first, then the z'-block, then the quantum y's.
    """
    n = a.n
    jj = a.weyl_indices
    ii = a.quantum_indices
    r = len(jj)
    size = 2 * n - r
    nz = len(ii)
    one = a.group.one()
    lam = [[one for _ in range(size)] for _ in range(size)]
    for k in range(nz):
        for t in range(nz):
            lam[k][t] = one
    for k in range(nz):
        for t in range(n):
            lam[k][nz + t] = a.qs[ii[k]] if t == ii[k] else one
            lam[nz + t][k] = a.qs[ii[k]].inv() if t == ii[k] else one
    for k in range(n):
        for t in range(n):
            lam[nz + k][nz + t] = a.lam[k][t]
    perm = [nz + j for j in jj] + list(range(nz)) + [nz + i for i in ii]
    plam = [[lam[perm[i]][perm[j]] for j in range(size)] for i in range(size)]
    return CanonicalMixedAlgebra(a.group, size, r, plam)


@dataclass
class LocalizationResult:
    canonical: CanonicalMixedAlgebra
    gmap: GeneratorMap
    normal_scalars: dict[int, dict[str, Scalar]]  # per inverted z index
    relations_checked: int


def localize_to_mixed(a: QuantumWeylAlgebra) -> LocalizationResult:
    """Invert the z_i and verify the canonical mixed relations symbolically.

    Each z with q != 1 is confirmed scalar-normal, its inverse adjoined with
    re-certified confluence, and every relation of the canonical
    presentation is reduced to zero on the generator images
    x'_j = z_(prev j)^{-1} x_j and z'_i = z_(prev i)^{-1} z_i.
    """
    sys = a.system()
    jj = a.weyl_indices
    ii = a.quantum_indices
    normal_scalars: dict[int, dict[str, Scalar]] = {}
    zinv_label: dict[int, str] = {}
    for i in ii:
        ext, label = sys.adjoin_inverse(a.z_element(sys, i), f"z{i+1}^-1")
        # The new letter Z equals z_i, so its rules carry z_i's twists.
        z = len(sys.letters)
        normal_scalars[i] = {name: ext.pair_rule_form(z, g)[1]
                             for g, name in enumerate(sys.letters)}
        sys = ext
        zinv_label[i] = label

    def prev_quantum(j: int) -> int | None:
        cands = [i for i in ii if i < j]
        return max(cands) if cands else None

    canonical = localized_lambda(a)
    target_names = canonical.gens()
    source = canonical.to_presentation(names=target_names)
    images: dict[str, Element] = {}
    # Canonical y-block: r Weyl-paired y's, then the z' chain, then quantum y's.
    for k, j in enumerate(jj):
        images[f"y{k+1}"] = sys.word(f"y{j+1}")
    for k, i in enumerate(ii):
        p = ii[k - 1] if k else None
        z_el = a.z_element(sys, i)
        if p is None:
            images[f"y{len(jj)+k+1}"] = z_el
        else:
            images[f"y{len(jj)+k+1}"] = sys.word(zinv_label[p]).concat(z_el)
    for k, i in enumerate(ii):
        images[f"y{len(jj)+len(ii)+k+1}"] = sys.word(f"y{i+1}")
    for k, j in enumerate(jj):
        p = prev_quantum(j)
        if p is None:
            images[f"x{k+1}"] = sys.word(f"x{j+1}")
        else:
            images[f"x{k+1}"] = sys.word(zinv_label[p], f"x{j+1}")
    gmap = GeneratorMap(source, sys, images)
    res = verify_homomorphism(gmap)
    if not isinstance(res, Verified):
        raise VerificationError(f"localization relations failed: {res}")
    return LocalizationResult(canonical, gmap, normal_scalars, res.relations_checked)


@dataclass(frozen=True)
class QWeylInvariants:
    gk_dim: int
    w_supdeg: int
    center_trivial: bool | None  # None when a q_i is a nontrivial root of unity


def qweyl_invariants(a: QuantumWeylAlgebra) -> QWeylInvariants:
    r = len(a.weyl_indices)
    applicable = all(q.is_one() or any(q.free) for q in a.qs)
    center_trivial = None
    if applicable:
        _, center = center_lattices(localized_lambda(a))
        center_trivial = not center
    return QWeylInvariants(gk_dim=2 * a.n, w_supdeg=2 * r,
                           center_trivial=center_trivial)


def qweyl_equivalence_necessary(a: QuantumWeylAlgebra, b: QuantumWeylAlgebra,
                                param: str | None = None):
    """Necessary conditions via the localized canonical algebras; the
    semiclassical decision applies when every parameter equals 1."""
    if a.n != b.n:
        return NotEquivalent("NEQ_GK", f"gk {2 * a.n} vs {2 * b.n}")
    ca, cb = localized_lambda(a), localized_lambda(b)
    return equivalence_decide(ca, cb, param=param)
